package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	tilt "repro"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/decompose"
	"repro/internal/device"
	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/mc"
	"repro/internal/noise"
	"repro/internal/pipeline"
	"repro/internal/qccd"
	"repro/internal/qsim"
	"repro/internal/sim"
	"repro/internal/swapins"
)

// replayInputs is how many distinct inputs, in request order, the layer
// replay times.
const replayInputs = 200

// replayShots is the Monte-Carlo shot count of the replay; the
// mc-crosscheck workload runs linqd with the same.
const replayShots = 256

// maxStateQubits bounds the width of the statevector replays (2^20
// amplitudes is 16 MiB).
const maxStateQubits = 20

// stateOpsCap bounds one timed StateFidelity call to about this many
// amplitude updates (gates × shots × 2^qubits) by lowering its shot count,
// so wide chains stay within the replay's time budget.
const stateOpsCap = 5e7

// replayLayers times each layer's public functions in-process, one call at
// a time, on the workload's first distinct inputs. results holds a served
// result body per input where the run fetched one; journal records carry
// those. Each section stops at its time budget once it has timed one input.
func replayLayers(w *workload, in *inputs, order []int, results map[int][]byte, dir string, budget time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	ctx := context.Background()
	p := noise.Default()

	// Circuit wire: decode the submit body, fingerprint, encode the result.
	var decode, fprint, encode []float64
	for _, k := range order {
		var req struct {
			Backend string        `json:"backend"`
			Circuit *tilt.Circuit `json:"circuit"`
		}
		t := time.Now()
		if err := json.Unmarshal(in.bodies[k], &req); err != nil {
			return nil, err
		}
		decode = append(decode, us(time.Since(t)))
		t = time.Now()
		_ = req.Circuit.Fingerprint()
		fprint = append(fprint, us(time.Since(t)))
		if body, ok := results[k]; ok {
			var f fetched
			if err := json.Unmarshal(body, &f); err != nil {
				return nil, err
			}
			var b bytes.Buffer
			enc := json.NewEncoder(&b)
			enc.SetIndent("", "  ") // as linqd writes it
			t = time.Now()
			if err := enc.Encode(map[string]any{"id": "j-00000001", "state": f.State, "result": f.Result}); err != nil {
				return nil, err
			}
			encode = append(encode, us(time.Since(t)))
		}
	}
	out["circuit.decode_us.p50"] = quantile(decode, 0.5)
	out["circuit.fingerprint_us.p50"] = quantile(fprint, 0.5)
	out["result.encode_us.p50"] = quantile(encode, 0.5)

	// Journal: the three records linqd writes per job, fsynced, then a
	// replay of everything appended.
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	jnl, err := journal.Open(dir)
	if err != nil {
		return nil, err
	}
	var appends []float64
	stop := time.Now().Add(budget)
	for i, k := range order {
		if i > 0 && time.Now().After(stop) {
			break
		}
		circ, err := json.Marshal(in.entries[k].circ)
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("j-%08d", i+1)
		now := time.Now()
		recs := []journal.Record{
			{Op: journal.OpSubmitted, ID: id, Backend: in.entries[k].backend, Submitted: now, Circuit: circ},
			{Op: journal.OpStarted, ID: id, Backend: in.entries[k].backend},
			{Op: journal.OpFinalized, ID: id, Backend: in.entries[k].backend, Submitted: now, Finished: now,
				State: "done", Result: resultJSON(results, k)},
		}
		for _, rec := range recs {
			t := time.Now()
			if err := jnl.Append(rec); err != nil {
				return nil, err
			}
			appends = append(appends, us(time.Since(t)))
		}
	}
	if err := jnl.Close(); err != nil {
		return nil, err
	}
	t := time.Now()
	jnl, err = journal.Open(dir)
	if err != nil {
		return nil, err
	}
	if err := jnl.Replay(func(journal.Record) error { return nil }); err != nil {
		return nil, err
	}
	out["journal.replay_ms"] = ms(time.Since(t))
	if err := jnl.Close(); err != nil {
		return nil, err
	}
	out["journal.append_us.p50"] = quantile(appends, 0.5)
	out["journal.append_us.p90"] = quantile(appends, 0.9)

	// Compiler passes and the TILT simulator, configured as linqd's TILT
	// backend: each chain as long as the circuit is wide.
	type compiled struct {
		cr  *core.CompileResult
		dev device.TILT
	}
	var (
		progs              []compiled
		simulate           []float64
		swapTime, moveTime time.Duration
		swaps, moves       int
	)
	stop = time.Now().Add(2 * budget)
	for i, k := range order {
		if i > 0 && time.Now().After(stop) {
			break
		}
		c := in.entries[k].circ
		cfg := core.Config{
			Device:    device.TILT{NumIons: c.NumQubits(), HeadSize: w.head},
			Placement: mapping.ProgramOrderPlacement,
			Inserter:  swapins.LinQ{},
		}
		walls := map[string]time.Duration{}
		obs := pipeline.ObserverFuncs{Finished: func(t pipeline.PassTiming, _ error) { walls[t.Pass] += t.Wall }}
		cr, err := core.CompileWith(ctx, c, cfg, nil, obs)
		if err != nil {
			return nil, err
		}
		swapTime += walls[pipeline.NameInsertSwaps]
		moveTime += walls[pipeline.NameSchedule]
		swaps += cr.SwapCount
		moves += cr.Moves()
		t := time.Now()
		if _, err := sim.Simulate(ctx, cr.Physical, cr.Schedule, cfg.Device, p); err != nil {
			return nil, err
		}
		simulate = append(simulate, us(time.Since(t)))
		progs = append(progs, compiled{cr, cfg.Device})
	}
	out["swapins.us_per_swap"] = ratio(us(swapTime), float64(swaps))
	out["schedule.us_per_move"] = ratio(us(moveTime), float64(moves))
	out["sim.simulate_us.p50"] = quantile(simulate, 0.5)

	// QCCD capacity sweep over the native circuit.
	var sweep []float64
	stop = time.Now().Add(budget)
	for i, k := range order {
		if i > 0 && time.Now().After(stop) {
			break
		}
		c := in.entries[k].circ
		native := decompose.ToNative(c)
		t := time.Now()
		if _, err := qccd.RunBestCapacity(ctx, native, c.NumQubits(), nil, p); err != nil {
			return nil, err
		}
		sweep = append(sweep, ms(time.Since(t)))
	}
	out["qccd.best_capacity_ms.p50"] = quantile(sweep, 0.5)

	// Monte Carlo on one worker: engine build, the clean-trajectory
	// estimate, and the statevector estimate on chains it supports. Rates
	// are per scheduled gate per shot.
	var build []float64
	var cleanNs, stateNs, cleanWork, stateWork float64
	stop = time.Now().Add(2 * budget)
	for i, pr := range progs {
		if i > 0 && time.Now().After(stop) {
			break
		}
		t := time.Now()
		eng, err := mc.NewEngine(pr.cr.Physical, pr.cr.Schedule, pr.dev, p, mc.WithWorkers(1))
		if err != nil {
			return nil, err
		}
		build = append(build, us(time.Since(t)))
		events := float64(pr.cr.Physical.Len()-pr.cr.Physical.CountKind(circuit.Measure)) * replayShots
		t = time.Now()
		if _, _, err := eng.CleanProbability(ctx, replayShots, 0); err != nil {
			return nil, err
		}
		cleanNs += float64(time.Since(t))
		cleanWork += events
		if pr.dev.NumIons <= mc.MaxStateFidelityIons {
			gates := events / replayShots
			shots := int(min(replayShots, max(1, stateOpsCap/(gates*float64(int(1)<<pr.dev.NumIons)))))
			// The first call also evolves the ideal state; keep it untimed.
			if _, _, err := eng.StateFidelity(ctx, 1, 0); err != nil {
				return nil, err
			}
			t = time.Now()
			if _, _, err := eng.StateFidelity(ctx, shots, 0); err != nil {
				return nil, err
			}
			stateNs += float64(time.Since(t))
			stateWork += gates * float64(shots)
		}
	}
	out["mc.engine_build_us"] = quantile(build, 0.5)
	out["mc.clean_ns_per_event_shot"] = ratio(cleanNs, cleanWork)
	out["mc.state_ns_per_event_shot"] = ratio(stateNs, stateWork)

	// Statevector gate application over the logical circuit.
	var gateNs, ampGates float64
	stop = time.Now().Add(budget)
	for _, k := range order {
		if time.Now().After(stop) {
			break
		}
		c := in.entries[k].circ
		if c.NumQubits() > maxStateQubits {
			continue
		}
		st := qsim.NewState(c.NumQubits())
		t := time.Now()
		for _, g := range c.Gates() {
			st.ApplyGate(g)
		}
		gateNs += float64(time.Since(t))
		ampGates += float64(c.Len()) * float64(int(1)<<c.NumQubits())
	}
	out["qsim.ns_per_amp_gate"] = ratio(gateNs, ampGates)
	return out, nil
}

// resultJSON is the served result of input k, as linqd journals it.
func resultJSON(results map[int][]byte, k int) json.RawMessage {
	var f struct {
		Result json.RawMessage `json:"result"`
	}
	if json.Unmarshal(results[k], &f) != nil {
		return nil
	}
	return f.Result
}
