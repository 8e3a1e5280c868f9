package placer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/density"
	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/wirelength"
)

// TestGuardGolden pins guarded runs bit for bit across every optimizer, three
// faults and two retry budgets: the HPWL bits, SHA-256 digests of the final
// position bits and of the recorded trajectory, the iteration and evaluation
// counts, the guard counters, every event with the iteration it rolled back
// to and its shrink factor, and the DivergenceError of a run that gives up.
// A rework of the snapshot and rollback plumbing must leave every line
// unchanged; a change of the guard's policy re-pins them on purpose.
func TestGuardGolden(t *testing.T) {
	defer func() {
		wirelength.GradHook = nil
		density.SolveHook = nil
	}()
	// Each fault is a fresh plan per run, wired into the matching hook.
	faults := map[string]faultinject.Fault{
		"nan":        {Site: faultinject.SiteWirelengthGrad, Mode: faultinject.ModeNaN, After: 40},
		"solve":      {Site: faultinject.SitePoissonSolve, Mode: faultinject.ModePoison, After: 20},
		"persistent": {Site: faultinject.SiteWirelengthGrad, Mode: faultinject.ModeNaN, After: 40, Forever: true},
	}
	for _, tc := range []struct {
		optimizer, fault string
		retries          int
		want             string
	}{
		{"nesterov", "nan", 0,
			"hpwl=0x4071b705521bccc3 pos=6fd737afc17c4d9a69b918729d2485c25a2dfa6192047538fff13994df65dc07 traj=0c2769e45fa82d916715b5818007142f4cee926a724229ed109bf8539ca42909 iters=60 evals=123 guard=1/1/1 events=[trip@36>0*0 rollback@36>30*1 recover@50>0*0] diverged=none"},
		{"nesterov", "nan", 1,
			"hpwl=0x4071b705521bccc3 pos=6fd737afc17c4d9a69b918729d2485c25a2dfa6192047538fff13994df65dc07 traj=0c2769e45fa82d916715b5818007142f4cee926a724229ed109bf8539ca42909 iters=60 evals=123 guard=1/1/1 events=[trip@36>0*0 rollback@36>30*1 recover@50>0*0] diverged=none"},
		{"nesterov", "solve", 0,
			"hpwl=0x4071b705521bccc3 pos=6fd737afc17c4d9a69b918729d2485c25a2dfa6192047538fff13994df65dc07 traj=0c2769e45fa82d916715b5818007142f4cee926a724229ed109bf8539ca42909 iters=60 evals=123 guard=1/1/1 events=[trip@16>0*0 rollback@16>10*1 recover@30>0*0] diverged=none"},
		{"nesterov", "solve", 1,
			"hpwl=0x4071b705521bccc3 pos=6fd737afc17c4d9a69b918729d2485c25a2dfa6192047538fff13994df65dc07 traj=0c2769e45fa82d916715b5818007142f4cee926a724229ed109bf8539ca42909 iters=60 evals=123 guard=1/1/1 events=[trip@16>0*0 rollback@16>10*1 recover@30>0*0] diverged=none"},
		{"nesterov", "persistent", 0,
			"hpwl=0x4070d82e6f98f458 pos=013a44e954fe6286df3336dac9a776c91a55d9a4e7abd9cb32cb40d784f8f065 traj=f5b6646860a6473769d96f4e61225f71d495de11daa39bfd1882459b0217ca9e iters=30 evals=63 guard=4/3/0 events=[trip@36>0*0 rollback@36>30*1 trip@30>0*0 rollback@30>30*0.5 trip@30>0*0 rollback@30>30*0.25 trip@30>0*0 fail@30>30*0] diverged=lastgood=30 retries=3"},
		{"nesterov", "persistent", 1,
			"hpwl=0x4070d82e6f98f458 pos=013a44e954fe6286df3336dac9a776c91a55d9a4e7abd9cb32cb40d784f8f065 traj=f5b6646860a6473769d96f4e61225f71d495de11daa39bfd1882459b0217ca9e iters=30 evals=63 guard=2/1/0 events=[trip@36>0*0 rollback@36>30*1 trip@30>0*0 fail@30>30*0] diverged=lastgood=30 retries=1"},
		{"adam", "nan", 0,
			"hpwl=0x4071c1b7de3ae5f1 pos=842aa2f9f38428935fe8b98e9fc501df85cea682c9cc1e5333c529ef214fd33c traj=d7ac178b8b3b74f16954bb38b7788d84d89048fc29738d3ab61888d40fdb2380 iters=60 evals=60 guard=1/1/0 events=[trip@40>0*0 rollback@40>40*1] diverged=none"},
		{"adam", "nan", 1,
			"hpwl=0x4071c1b7de3ae5f1 pos=842aa2f9f38428935fe8b98e9fc501df85cea682c9cc1e5333c529ef214fd33c traj=d7ac178b8b3b74f16954bb38b7788d84d89048fc29738d3ab61888d40fdb2380 iters=60 evals=60 guard=1/1/0 events=[trip@40>0*0 rollback@40>40*1] diverged=none"},
		{"adam", "solve", 0,
			"hpwl=0x4071c1b7de3ae5f1 pos=842aa2f9f38428935fe8b98e9fc501df85cea682c9cc1e5333c529ef214fd33c traj=d7ac178b8b3b74f16954bb38b7788d84d89048fc29738d3ab61888d40fdb2380 iters=60 evals=60 guard=1/1/1 events=[trip@20>0*0 rollback@20>20*1 recover@40>0*0] diverged=none"},
		{"adam", "solve", 1,
			"hpwl=0x4071c1b7de3ae5f1 pos=842aa2f9f38428935fe8b98e9fc501df85cea682c9cc1e5333c529ef214fd33c traj=d7ac178b8b3b74f16954bb38b7788d84d89048fc29738d3ab61888d40fdb2380 iters=60 evals=60 guard=1/1/1 events=[trip@20>0*0 rollback@20>20*1 recover@40>0*0] diverged=none"},
		{"adam", "persistent", 0,
			"hpwl=0x40713fcd5665ee6c pos=3ec98c8bcdb8b112ac38bf900883c20f03f1e0e53335224234afad584f1fd955 traj=11e6643f8997b2f44eeb0f69ae62ed8e0cb107a9f144b4a27c2143090d4b9123 iters=40 evals=40 guard=4/3/0 events=[trip@40>0*0 rollback@40>40*1 trip@40>0*0 rollback@40>40*0.5 trip@40>0*0 rollback@40>40*0.25 trip@40>0*0 fail@40>40*0] diverged=lastgood=40 retries=3"},
		{"adam", "persistent", 1,
			"hpwl=0x40713fcd5665ee6c pos=3ec98c8bcdb8b112ac38bf900883c20f03f1e0e53335224234afad584f1fd955 traj=11e6643f8997b2f44eeb0f69ae62ed8e0cb107a9f144b4a27c2143090d4b9123 iters=40 evals=40 guard=2/1/0 events=[trip@40>0*0 rollback@40>40*1 trip@40>0*0 fail@40>40*0] diverged=lastgood=40 retries=1"},
		{"momentum", "nan", 0,
			"hpwl=0x407326b2ca2a0ade pos=485beab8478667ce0930bc3b7545be4ca7ccf5e508e392df5ad3c38fe2d2ec5e traj=42689491487b227d3ecc3ca1f5e804ada2ce8c7971c0c765e1c1ee29922bdfb9 iters=60 evals=60 guard=1/1/0 events=[trip@40>0*0 rollback@40>40*1] diverged=none"},
		{"momentum", "nan", 1,
			"hpwl=0x407326b2ca2a0ade pos=485beab8478667ce0930bc3b7545be4ca7ccf5e508e392df5ad3c38fe2d2ec5e traj=42689491487b227d3ecc3ca1f5e804ada2ce8c7971c0c765e1c1ee29922bdfb9 iters=60 evals=60 guard=1/1/0 events=[trip@40>0*0 rollback@40>40*1] diverged=none"},
		{"momentum", "solve", 0,
			"hpwl=0x407326b2ca2a0ade pos=485beab8478667ce0930bc3b7545be4ca7ccf5e508e392df5ad3c38fe2d2ec5e traj=42689491487b227d3ecc3ca1f5e804ada2ce8c7971c0c765e1c1ee29922bdfb9 iters=60 evals=60 guard=1/1/1 events=[trip@20>0*0 rollback@20>20*1 recover@40>0*0] diverged=none"},
		{"momentum", "solve", 1,
			"hpwl=0x407326b2ca2a0ade pos=485beab8478667ce0930bc3b7545be4ca7ccf5e508e392df5ad3c38fe2d2ec5e traj=42689491487b227d3ecc3ca1f5e804ada2ce8c7971c0c765e1c1ee29922bdfb9 iters=60 evals=60 guard=1/1/1 events=[trip@20>0*0 rollback@20>20*1 recover@40>0*0] diverged=none"},
		{"momentum", "persistent", 0,
			"hpwl=0x4077d36363b8d05e pos=1f3dc03ec58b21c8e5a80ab607f3586fdaf15ea3a23b0c961bf575b81dd268f8 traj=8fdc63016904e6186de4713c3ee278baf04e4fab247ff7f00ab23b345d62b536 iters=40 evals=40 guard=4/3/0 events=[trip@40>0*0 rollback@40>40*1 trip@40>0*0 rollback@40>40*0.5 trip@40>0*0 rollback@40>40*0.25 trip@40>0*0 fail@40>40*0] diverged=lastgood=40 retries=3"},
		{"momentum", "persistent", 1,
			"hpwl=0x4077d36363b8d05e pos=1f3dc03ec58b21c8e5a80ab607f3586fdaf15ea3a23b0c961bf575b81dd268f8 traj=8fdc63016904e6186de4713c3ee278baf04e4fab247ff7f00ab23b345d62b536 iters=40 evals=40 guard=2/1/0 events=[trip@40>0*0 rollback@40>40*1 trip@40>0*0 fail@40>40*0] diverged=lastgood=40 retries=1"},
	} {
		t.Run(fmt.Sprintf("%s/%s/retries=%d", tc.optimizer, tc.fault, tc.retries), func(t *testing.T) {
			plan := faultinject.NewPlan(faults[tc.fault])
			wirelength.GradHook = func(_ string, gradX, _ []float64) {
				if _, ok := plan.Visit(faultinject.SiteWirelengthGrad); ok {
					for i := range gradX {
						gradX[i] = math.NaN()
					}
				}
			}
			density.SolveHook = func(e *density.Electro) {
				if _, ok := plan.Visit(faultinject.SitePoissonSolve); ok {
					for i := range e.Ex {
						e.Ex[i] = math.NaN()
					}
				}
			}
			var events []string
			cfg := resumeBase()
			cfg.Optimizer = tc.optimizer
			cfg.Guard = &guard.Config{MaxRetries: tc.retries, OnEvent: func(ev guard.Event) {
				events = append(events, fmt.Sprintf("%s@%d>%d*%g", ev.Kind, ev.Iter, ev.RestoredIter, ev.Shrink))
			}}
			d := testDesign(t, 80, 0)
			res, err := Place(d, cfg)
			diverged := "none"
			var de *guard.DivergenceError
			switch {
			case errors.As(err, &de):
				diverged = fmt.Sprintf("lastgood=%d retries=%d", de.LastGood, de.Retries)
			case err != nil:
				t.Fatal(err)
			}
			got := fmt.Sprintf("hpwl=%#x pos=%s traj=%s iters=%d evals=%d guard=%d/%d/%d events=[%s] diverged=%s",
				math.Float64bits(res.HPWL), bitsDigest(d.X, d.Y), trajectoryDigest(res.Trajectory),
				res.Iterations, res.Evaluations, res.GuardTrips, res.GuardRollbacks, res.GuardRecoveries,
				strings.Join(events, " "), diverged)
			if got != tc.want {
				t.Errorf("got  %s\nwant %s", got, tc.want)
			}
		})
	}
}

// bitsDigest is the SHA-256 of every value's bits, lane after lane,
// little-endian.
func bitsDigest(lanes ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, lane := range lanes {
		for _, v := range lane {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// trajectoryDigest is bitsDigest over every recorded point's fields.
func trajectoryDigest(traj []TrajectoryPoint) string {
	var vals []float64
	for _, p := range traj {
		vals = append(vals, float64(p.Iter), p.Overflow, p.HPWL, p.Objective, p.Param, p.Lambda)
	}
	return bitsDigest(vals)
}
