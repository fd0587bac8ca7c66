package linqhttp

import (
	"encoding/json"

	"repro/internal/jobs"
)

// IntakeOf runs a "circuit" field through the server's intake path, cache
// included, for the external tests.
func IntakeOf(s *Server, raw json.RawMessage) (*jobs.Intake, error) { return s.intake(raw) }
