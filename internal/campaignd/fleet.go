package campaignd

// Fleet execution: when the server is configured with Workers > 0, a
// running job's pending points are executed by a supervised fleet of
// worker subprocesses (internal/workerpool) instead of the in-process
// sweep. Everything else is runJob's, shared with the in-process path —
// the same resume step, the same job log, the same report bytes — so a
// campaign can be run in-process, killed, and resumed under a fleet (or
// vice versa) without the client seeing the difference. The fleet adds
// isolation: a crashing, stalling, or corrupted worker costs one
// process and a lease requeue, never the daemon or other campaigns.

import (
	"fmt"
	"os"

	"tocttou/internal/core"
	"tocttou/internal/workerpool"
)

// runFleet is runJob's fleet executor: it runs the resume's pending
// points over a worker fleet, handing each result to rs.Commit on the
// supervisor's event loop (a hand-off: the loop never waits). Only a
// fleet that settled every point skips the quarantined points it
// returns; after a drain runJob's Drain drops the points held behind.
func (s *Server) runFleet(j *job, rs *core.SweepResume) ([]workerpool.Quarantine, error) {
	spec, err := os.ReadFile(j.specPath())
	if err != nil {
		return nil, fmt.Errorf("reading stored spec: %w", err)
	}
	points := j.compiled.Points
	// The points before Pending are settled; the fleet runs the rest.
	settled := make(map[int]core.CampaignResult, len(points)-len(rs.Pending))
	for i := range len(points) - len(rs.Pending) {
		settled[i] = core.CampaignResult{}
	}
	cfg := workerpool.Config{
		Workers:           s.cfg.Workers,
		Command:           s.cfg.WorkerCommand,
		Env:               s.cfg.WorkerEnv,
		HeartbeatInterval: s.cfg.HeartbeatInterval,
		LeaseTimeout:      s.cfg.LeaseTimeout,
		MaxPointRetries:   s.cfg.MaxPointRetries,
		Interrupt:         s.interrupt,
		Logf:              s.cfg.Logf,
	}
	_, fstats, err := workerpool.Run(cfg, j.info.Filename, spec, points, settled, rs.Commit)
	if err == nil {
		for _, q := range fstats.Quarantined {
			rs.Skip(q.Point) // its only error, a failed batch's, Drain reports
		}
	}
	s.workerRestarts.Add(int64(fstats.Restarts))
	s.leasesRequeued.Add(int64(fstats.LeasesRequeued))
	s.pointsDeduped.Add(int64(fstats.PointsDeduped))
	return fstats.Quarantined, err
}
