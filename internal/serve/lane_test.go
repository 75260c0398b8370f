package serve

import (
	"context"
	"errors"
	"testing"

	"knemesis/internal/comm"
	"knemesis/internal/experiments"
	"knemesis/internal/serve/api"
)

// errProbed ends a probe job as soon as it has recorded what it was
// built from.
var errProbed = errors.New("probe: recorded")

// A test engine and a test experiment that record the comm spec and the
// experiment environment Execute builds for them.
var (
	probedSpec = make(chan comm.JobSpec, 1)
	probedEnv  = make(chan experiments.Env, 1)
)

func init() {
	comm.RegisterEngine(comm.Engine{
		Name: "spec-probe", Help: "test engine: records its JobSpec",
		NewJob: func(s comm.JobSpec) (comm.Job, error) {
			probedSpec <- s
			return nil, errProbed
		},
	})
	experiments.RegisterExperiment(experiments.Experiment{
		ID: "env-probe", Title: "test experiment: records its Env",
		Run: func(_ context.Context, env experiments.Env) (experiments.Result, error) {
			probedEnv <- env
			return nil, errProbed
		},
	})
}

// Every real-runtime world Execute builds may treat only the rt lane's
// reserved cores as its own: the sim pool keeps the other Ps busy, so
// ranks beyond the reservation must yield between polls rather than spin.
func TestExecuteLimitsRTWorldsToLaneCores(t *testing.T) {
	ctx := context.Background()
	_, err := Execute(ctx, api.Spec{Kind: api.KindComm, Engine: "spec-probe",
		Bench: "pingpong", Ranks: 2, Sizes: []int64{64}}, nil)
	if !errors.Is(err, errProbed) {
		t.Fatalf("comm job: err = %v, want the probe's", err)
	}
	if got := (<-probedSpec).RTProcs; got != rtJobCores {
		t.Errorf("comm job: JobSpec.RTProcs = %d, want the lane's %d cores", got, rtJobCores)
	}

	_, err = Execute(ctx, api.Spec{Kind: api.KindExperiment, Experiment: "env-probe"}, nil)
	if !errors.Is(err, errProbed) {
		t.Fatalf("experiment: err = %v, want the probe's", err)
	}
	if got := (<-probedEnv).RTProcs; got != rtJobCores {
		t.Errorf("experiment: Env.RTProcs = %d, want the lane's %d cores", got, rtJobCores)
	}
}
