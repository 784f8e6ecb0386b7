package analyze_test

import (
	"strings"
	"testing"

	"loggpsim/internal/analyze"
	"loggpsim/internal/cost"
	"loggpsim/internal/loggp"
	"loggpsim/internal/predictor"
	"loggpsim/internal/program"
	"loggpsim/internal/sim"
	"loggpsim/internal/trace"
	"loggpsim/internal/worstcase"
)

func TestPrecheckHooks(t *testing.T) {
	params := loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: 8}
	good := trace.Gather(8, 0, 64)
	bad := trace.New(8).Add(0, 0, 8).Add(1, 99, 8)
	cyclic := trace.Ring(8, 64)

	simCfg := sim.Config{Params: params, Precheck: analyze.Precheck(params)}
	if _, err := sim.Run(good, simCfg); err != nil {
		t.Fatalf("clean pattern rejected: %v", err)
	}
	if _, err := sim.Run(cyclic, simCfg); err != nil {
		t.Fatalf("cyclic pattern is a legal standard-scheduler input: %v", err)
	}
	_, err := sim.Run(bad, simCfg)
	if err == nil {
		t.Fatal("invalid pattern accepted")
	}
	// The hook reports both violations, not just the first.
	if !strings.Contains(err.Error(), "self message") || !strings.Contains(err.Error(), "dst 99") {
		t.Fatalf("precheck error not multi-error: %v", err)
	}

	wcCfg := worstcase.Config{Params: params, Precheck: analyze.DeadlockFreePrecheck(params)}
	if _, err := worstcase.Run(good, wcCfg); err != nil {
		t.Fatalf("acyclic pattern rejected: %v", err)
	}
	_, err = worstcase.Run(cyclic, wcCfg)
	if err == nil {
		t.Fatal("cyclic pattern passed the deadlock-free precheck")
	}
	if !strings.Contains(err.Error(), "witness cycle") {
		t.Fatalf("no witness cycle in: %v", err)
	}
}

func TestProgramPrecheckHook(t *testing.T) {
	params := loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: 2}
	model := cost.DefaultAnalytic()

	pr := program.New(2)
	s := pr.AddStep()
	s.AddOp(0, 1, 24)
	s.Comm.Add(0, 1, 128)
	cfg := predictor.Config{Params: params, Cost: model, Precheck: analyze.ProgramPrecheck(params)}
	if _, err := predictor.Predict(pr, cfg); err != nil {
		t.Fatalf("clean program rejected: %v", err)
	}

	badPr := program.New(2)
	bs := badPr.AddStep()
	bs.AddOp(0, 99, 24)  // op-range
	bs.Comm.Add(1, 1, 8) // self-send
	_, err := predictor.Predict(badPr, cfg)
	if err == nil {
		t.Fatal("invalid program accepted")
	}
	if !strings.Contains(err.Error(), "unknown basic operation") || !strings.Contains(err.Error(), "self message") {
		t.Fatalf("program precheck error not multi-error: %v", err)
	}
}
