package scenario

// Compilation: a validated Spec lowers to a []core.SweepPoint, so the
// sweep engine's coalescing, checkpointing, and adaptive budgets apply
// unchanged. The fig6 and faultsweep experiments are exactly the
// compiled points of their shipped specs.

import (
	"fmt"

	"tocttou/internal/attack"
	"tocttou/internal/core"
	"tocttou/internal/fault"
	"tocttou/internal/prog"
	"tocttou/internal/victim"
)

// PointMeta labels one compiled sweep point for rendering and assertion
// selection.
type PointMeta struct {
	Label    string
	Victim   string
	Attacker string
	SizeKB   int
	// Rate is the fault_rates axis value (0 without the axis).
	Rate float64
	// Policy is the policies axis label ("" without the axis).
	Policy string
	// Template is the fleet template name ("" outside fleets).
	Template string
}

// Compiled is a scenario lowered to sweep points.
type Compiled struct {
	Spec   *Spec
	Points []core.SweepPoint
	Meta   []PointMeta
}

// Compile lowers a validated spec to its sweep grid. The grid order is
// fault_rates (outer) × policies × sizes (inner); point i runs at seed
// spec.Seed + i*spec.SeedStride, the stride layout the Go-wired
// experiments use too.
func Compile(s *Spec) (*Compiled, error) {
	if s.Fleet != nil {
		return compileFleet(s)
	}
	c := &Compiled{Spec: s}
	rates := s.FaultRates
	if len(rates) == 0 {
		rates = []float64{0}
	}
	policies := s.Policies
	if len(policies) == 0 {
		policies = []Policy{{}}
	}
	for ri, rate := range rates {
		for pi, pol := range policies {
			for si, kb := range s.SizesKB {
				idx := (ri*len(policies)+pi)*len(s.SizesKB) + si
				vict, att, err := buildPrograms(s.Victim, s.Attacker, pol, len(s.Policies) > 0)
				if err != nil {
					return nil, err
				}
				sc := core.Scenario{
					Machine:    s.Machine,
					Victim:     vict,
					Attacker:   att,
					UseSyscall: s.Syscall,
					FileSize:   int64(kb) << 10,
					Seed:       s.Seed + int64(idx)*s.SeedStride,
					Trace:      s.Trace,
					Watchdog:   s.Watchdog,
				}
				if s.Faults != nil {
					plan, err := s.Faults.plan(rate)
					if err != nil {
						return nil, fmt.Errorf("point %d: %w", idx, err)
					}
					sc.Faults = plan
				}
				label := fmt.Sprintf("%s/%s %dKB", s.Victim, s.Attacker, kb)
				if len(s.FaultRates) > 0 {
					label = fmt.Sprintf("p=%.3f %s", rate, label)
				}
				if len(s.Policies) > 0 {
					label += " " + pol.Label
				}
				c.Points = append(c.Points, core.SweepPoint{Scenario: sc, Rounds: s.Rounds})
				c.Meta = append(c.Meta, PointMeta{
					Label:    label,
					Victim:   s.Victim,
					Attacker: s.Attacker,
					SizeKB:   kb,
					Rate:     rate,
					Policy:   pol.Label,
				})
			}
		}
	}
	return c, nil
}

// buildPrograms instantiates the named victim and attacker, applying the
// robustness policy when the policies axis is active (validation already
// restricted that axis to the vi/v1 pair, the programs carrying Robust).
func buildPrograms(victimName, attackerName string, pol Policy, applyPolicy bool) (prog.Program, prog.Program, error) {
	var vict prog.Program
	switch victimName {
	case "vi":
		v := victim.NewVi()
		if applyPolicy {
			v.Robust = pol.Robust
		}
		vict = v
	case "gedit":
		vict = victim.NewGedit()
	case "rpm":
		vict = victim.NewAlwaysSuspended()
	case "vi-fixed":
		vict = victim.NewViFixed()
	case "gedit-fixed":
		vict = victim.NewGeditFixed()
	default:
		return nil, nil, fmt.Errorf("unknown victim %q", victimName)
	}
	var att prog.Program
	switch attackerName {
	case "v1":
		a := attack.NewV1()
		if applyPolicy {
			a.Robust = pol.Robust
		}
		att = a
	case "v2":
		att = attack.NewV2()
	case "pipelined":
		att = attack.NewPipelined()
	case "flipflop":
		att = attack.NewFlipFlop()
	case "idle":
		att = attack.Idle{}
	default:
		return nil, nil, fmt.Errorf("unknown attacker %q", attackerName)
	}
	return vict, att, nil
}

// defaultSyscall mirrors the spec-level default for fleet templates.
func defaultSyscall(victimName string) string {
	switch victimName {
	case "gedit", "gedit-fixed":
		return "chmod"
	}
	return "chown"
}

// plan instantiates the per-point fault plan. Under a fault_rates axis
// the *_scale fields multiply the axis rate; scaled products that leave
// [0, 1] are compile-time errors (the parser cannot see the product).
func (f *FaultSpec) plan(rate float64) (fault.Plan, error) {
	p := fault.Plan{
		Seed:         f.Seed,
		SemIntrDelay: f.SemIntrDelay,
		KillWindow:   f.KillWindow,
		Restart:      f.Restart,
		RestartDelay: f.RestartDelay,
	}
	if f.scaled {
		p.FSRate = rate * f.FSScale
		p.SemIntrRate = rate * f.SemIntrScale
		p.KillVictimRate = rate * f.KillVictimScale
		p.KillAttackerRate = rate * f.KillAttackerScale
		for name, v := range map[string]float64{
			"fs_scale":            p.FSRate,
			"sem_intr_scale":      p.SemIntrRate,
			"kill_victim_scale":   p.KillVictimRate,
			"kill_attacker_scale": p.KillAttackerRate,
		} {
			if v < 0 || v > 1 {
				return fault.Plan{}, fmt.Errorf("faults.%s × rate %v = %v outside [0, 1]", name, rate, v)
			}
		}
	} else {
		p.FSRate = f.FSRate
		p.SemIntrRate = f.SemIntrRate
		p.KillVictimRate = f.KillVictimRate
		p.KillAttackerRate = f.KillAttackerRate
	}
	return p, nil
}
