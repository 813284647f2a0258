package main

import (
	"errors"
	"fmt"
	"reflect"

	"qosrm/internal/db"
	"qosrm/internal/rm"
	"qosrm/internal/scenario"
	"qosrm/internal/sim"
)

// enginePasses is how many times the traced serve run replays its spec
// pool in-process with engine spans.
const enginePasses = 4

// traceEngine runs specs in-process, enginePasses times on one worker,
// with spans around each engine layer call, and reports the engine's
// per-layer metrics: the part of server.exec_ms the simulation takes.
// Every run must match its reference report.
func traceEngine(l *spanLog, d *db.DB, specs []scenario.Spec, refs []*scenario.Report, r *report) {
	var ws sim.RunWorkspace
	var invocations, intervals int64
	for p := 0; p < enginePasses; p++ {
		for i := range specs {
			err := traceSpec(l, d, &specs[i], refs[i], &ws, fmt.Sprintf("%s#%d", specs[i].Name, p))
			r.checkErr(err, "traced engine run")
			invocations += refs[i].RMCalled
			for _, j := range refs[i].Jobs {
				intervals += j.Intervals
			}
		}
	}
	tot := l.totals()
	n := float64(enginePasses * len(specs))
	per := fmt.Sprintf("(mean of %d in-process runs of the served specs, one worker)", int(n))
	r.set("scenario.compile_us", float64(tot["scenario.compile"])/1e3/n, per)
	r.set("sim.managed_ms", ms(tot["sim.managed"])/n, per)
	r.set("sim.idle_ms", ms(tot["sim.idle"])/n, per)
	r.set("rm.invocations", float64(invocations)/n, "(mean per served spec)")
	r.set("sim.intervals", float64(intervals)/n, "(mean per served spec)")
	r.set("sim.us_per_rm_invocation", float64(tot["sim.managed"])/1e3/float64(invocations),
		fmt.Sprintf("(managed time %.1f ms / %d RM invocations)", ms(tot["sim.managed"]), invocations))
}

// traceSpec is scenario.RunWS with a span around each layer call:
// spec compilation (which validates), the idle twin and the managed
// run. The outcome must match the spec's reference report.
func traceSpec(l *spanLog, d *db.DB, sp *scenario.Spec, ref *scenario.Report, ws *sim.RunWorkspace, id string) error {
	root := l.begin("scenario.run", id, -1)
	defer l.end(root)
	s := l.begin("scenario.compile", id, root)
	dyn, cfg, err := sp.Compile()
	l.end(s)
	if err != nil {
		return err
	}
	idleCfg := cfg
	idleCfg.RM = rm.Idle
	s = l.begin("sim.idle", id, root)
	idle, err := sim.RunDynamicWS(d, dyn, idleCfg, ws)
	l.end(s)
	if err != nil {
		return err
	}
	s = l.begin("sim.managed", id, root)
	res, err := sim.RunDynamicWS(d, dyn, cfg, ws)
	l.end(s)
	if err != nil {
		return err
	}
	if 1-res.EnergyJ/idle.EnergyJ != ref.Saving || res.RMCalled != ref.RMCalled || !reflect.DeepEqual(res.Jobs, ref.Jobs) {
		return errors.New("spec " + sp.Name + ": traced run differs from its reference report")
	}
	return nil
}
