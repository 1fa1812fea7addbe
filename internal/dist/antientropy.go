package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dlsearch/internal/ir"
	"dlsearch/internal/persist"
)

// Anti-entropy is the self-healing half of replication: PR 4's replica
// groups quarantine a replica the moment it fails a committed write,
// but a replica can also diverge silently — a process restarted with
// an empty or stale data dir, a corrupted restore, an operator mistake
// — and the write path never notices. The anti-entropy pass compares
// content checksums (ir.Index.Checksum, carried in NodeLoad) WITHIN
// each replica group, so divergence is detected before a diverged
// replica ever serves a ranking, not only after a failed write; with
// repair enabled the pass also resyncs the divergent replica from the
// healthiest group member's snapshot, clears its quarantine and
// returns it to routing — zero operator action.

// ReplicaCheck is one replica's outcome of an anti-entropy pass.
type ReplicaCheck struct {
	Partition int
	Replica   int
	// Load is the replica's probe result (checksum, doc count); only
	// meaningful when Err is nil.
	Load NodeLoad
	// Err is the probe or repair failure, if any.
	Err error
	// Diverged is the replica's quarantine state AFTER the pass.
	Diverged bool
	// Cleared is set when a stale quarantine lifted because the
	// replica's checksum matches its group again (an operator restored
	// it, or an idempotent retry re-fed the missed documents).
	Cleared bool
	// Resynced is set when this pass healed the replica from a group
	// member's snapshot.
	Resynced bool
}

// AntiEntropyReport summarises one CheckReplicas pass.
type AntiEntropyReport struct {
	// Replicas holds every replica's outcome in (partition, replica)
	// order.
	Replicas []ReplicaCheck
	// Detected counts divergences newly found by this pass (replicas
	// already quarantined by a failed write are not re-counted).
	Detected int
	// Cleared counts stale quarantines lifted by checksum match.
	Cleared int
	// Resynced counts replicas healed by this pass.
	Resynced int
}

// CheckReplicas runs one anti-entropy pass: within every replica
// group, each replica's content checksum is compared against the
// group's reference replica — the reachable, non-quarantined member
// holding the most documents (ties to the preferred routing order). A
// replica whose checksum disagrees, whether it lags documents or holds
// different ones, is marked diverged and — with repair set — resynced
// from the reference on the spot. A quarantined replica whose checksum
// matches the reference again has its quarantine cleared. Groups whose
// every usable member is unreachable are skipped: with no reference
// there is no truth to compare against.
//
// The pass holds each group's ingest write lock while it probes and
// repairs that group, so checksums are compared against a consistent
// cut (no write half-applied across the group) and a repair can never
// lose a concurrent write. Writes to a group therefore stall for the
// duration of its probe (cheap: checksums are cached per freeze epoch)
// plus any resync it needs; other groups are unaffected. Single-node
// groups have nothing to compare and are reported as-is.
func (c *Cluster) CheckReplicas(ctx context.Context, repair bool) *AntiEntropyReport {
	start := time.Now()
	report := &AntiEntropyReport{}
	for g := range c.groups {
		c.checkGroup(ctx, g, repair, report)
	}
	if c.met != nil {
		c.met.AntiEntropyDur.ObserveSince(start)
	}
	c.log.Debugf("anti-entropy pass: %d replicas checked, %d diverged, %d cleared, %d resynced in %v",
		len(report.Replicas), report.Detected, report.Cleared, report.Resynced,
		time.Since(start).Round(time.Millisecond))
	return report
}

// checkGroup runs the anti-entropy pass over one replica group.
func (c *Cluster) checkGroup(ctx context.Context, g int, repair bool, report *AntiEntropyReport) {
	c.ingest[g].Lock()
	defer c.ingest[g].Unlock()
	reps := c.groups[g]
	checks := make([]ReplicaCheck, len(reps))
	var wg sync.WaitGroup
	for r, node := range reps {
		checks[r] = ReplicaCheck{Partition: g, Replica: r}
		wg.Add(1)
		go func(r int, node Node) {
			defer wg.Done()
			nctx, cancel := c.nodeCtx(ctx)
			defer cancel()
			// Force a fresh digest; a plain Load may legitimately report
			// no checksum (stale cache), which would read as "cannot
			// compare" below.
			checks[r].Load, checks[r].Err = node.LoadChecksum(nctx)
		}(r, node)
	}
	wg.Wait()
	// Reference: reachable, non-quarantined, checksum-reporting, most
	// documents; ties break to the lowest replica index (the preferred
	// routing order). A quarantined replica can never define the
	// group's truth, and neither can a node that reports no checksum —
	// electing one as reference would silently disable detection for
	// the group.
	//
	// Tripwire against automated data loss: every document the cluster
	// routed to this partition satisfies partition(doc) == g, so a
	// non-empty replica whose highest oid maps elsewhere is holding a
	// FOREIGN fragment (wrong -resync peer, copied data dir). "Most
	// documents wins" must never elect it — repair would erase the
	// partition's committed documents from the correct replicas and
	// report the cluster healed. Such a replica stays comparable (it
	// will mismatch and be resynced from a correct member), it just
	// cannot define the truth.
	ref := -1
	for r := range reps {
		chk := &checks[r]
		if chk.Err != nil || chk.Load.Checksum == "" || c.isDiverged(g, r) {
			continue
		}
		if chk.Load.Docs > 0 && c.partition(chk.Load.MaxDoc, len(c.groups)) != g {
			continue
		}
		if ref == -1 || chk.Load.Docs > checks[ref].Load.Docs {
			ref = r
		}
	}
	// Second tripwire: the elected reference must hold at least as many
	// documents as every other reachable replica whose fragment
	// plausibly belongs to this partition — quarantined ones included.
	// Otherwise a wiped-but-never-faulted replica (empty, not diverged)
	// would be elected over a quarantined replica still holding all
	// committed documents, and repair would erase the partition's only
	// full copy. When the fullest plausible copy is not electable the
	// group has no establishable truth: hands off, report only, leave
	// it to the operator (a foreign fragment's inflated doc count does
	// not veto — it is provably not this partition's data).
	if ref != -1 {
		for r := range reps {
			chk := &checks[r]
			if r == ref || chk.Err != nil {
				continue
			}
			if chk.Load.Docs > 0 && c.partition(chk.Load.MaxDoc, len(c.groups)) != g {
				continue
			}
			if chk.Load.Docs > checks[ref].Load.Docs {
				ref = -1
				break
			}
		}
	}
	for r := range reps {
		chk := &checks[r]
		// Checksum-less replicas cannot be compared — skip them rather
		// than "matching" two empty strings.
		if chk.Err == nil && ref != -1 && r != ref && chk.Load.Checksum != "" {
			match := chk.Load.Checksum == checks[ref].Load.Checksum
			switch {
			case match && c.isDiverged(g, r):
				c.clearDiverged(g, r)
				chk.Cleared = true
				report.Cleared++
			case !match && !c.isDiverged(g, r):
				c.markDiverged(g, r)
				c.divergeCount.Add(1)
				report.Detected++
				c.log.Warnf("anti-entropy: partition %d replica %d diverged (checksum %s, reference replica %d has %s)",
					g, r, chk.Load.Checksum, ref, checks[ref].Load.Checksum)
			}
			if !match && repair {
				if err := c.resyncLocked(ctx, g, r, ref); err != nil {
					chk.Err = err
				} else {
					chk.Resynced = true
					report.Resynced++
				}
			}
		}
		chk.Diverged = c.isDiverged(g, r)
		report.Replicas = append(report.Replicas, *chk)
	}
}

// ResyncReplica heals replica r of partition g from the healthiest
// other member of its group: the source's complete fragment state is
// exported as one consistent cut and installed on the target under its
// write lock, the target's freeze epoch advancing past its pre-restore
// epoch so no cache serves pre-restore rankings. On success the
// replica's quarantine lifts and it rejoins routing as an equal —
// searches served by it are byte-identical to the source's.
//
// The resync holds the group's ingest write lock for its whole
// export→import window, so adds racing the resync are never lost: they
// either committed on every replica before the export, or they apply
// on top of the restored state afterwards. Per-node timeouts are
// deliberately NOT applied to the transfer (a fragment ships in one
// call whose size has nothing to do with one operation's budget) —
// bound it through ctx.
func (c *Cluster) ResyncReplica(ctx context.Context, g, r int) error {
	if g < 0 || g >= len(c.groups) || r < 0 || r >= len(c.groups[g]) {
		return fmt.Errorf("dist: no replica %d/%d", g, r)
	}
	c.ingest[g].Lock()
	defer c.ingest[g].Unlock()
	// Candidate sources in routing-preference order (non-diverged,
	// least-failing first); the target itself cannot be its own source.
	order := c.replicaOrder(g)
	if order == nil {
		return errors.New("dist: single-replica partition has no resync source")
	}
	var errs []error
	for _, src := range order {
		if src == r || c.isDiverged(g, src) {
			continue
		}
		if len(errs) > 0 {
			// A source just failed: back off (exponentially, jittered)
			// before hitting the next candidate, so a group recovering
			// from a shared fault isn't stormed by its own healing.
			if c.backoffSleep(ctx, len(errs)-1, resyncRetryBase, 2*time.Second) != nil {
				break
			}
		}
		if err := c.resyncLocked(ctx, g, r, src); err != nil {
			errs = append(errs, err)
			continue
		}
		return nil
	}
	if errs == nil {
		return fmt.Errorf("dist: partition %d has no healthy resync source for replica %d", g, r)
	}
	return errors.Join(errs...)
}

// resyncRetryBase paces retries and source-candidate fallbacks on the
// self-healing paths (exponential with jitter, see backoffDelay).
const resyncRetryBase = 100 * time.Millisecond

// resyncRetries bounds how many times a transiently failing resync
// RPC is attempted before the error propagates.
const resyncRetries = 3

// resyncLocked moves src's state onto replica r of group g. The caller
// holds the group's ingest write lock.
//
// The cheap path ships an op-log delta: when the source's log still
// covers the target's position, only the missing log suffix travels —
// cost proportional to the LAG, not the fragment. Positions alone
// cannot prove the two histories share a prefix (a replica may hold
// the right COUNT of the wrong documents), so the delta is an
// optimization verified by content checksum: after the apply, source
// and target must report identical fresh checksums, and any mismatch
// falls back to the full snapshot below. The full path is the unconditional truth-mover —
// and it too verifies before readmitting: the target's fresh checksum
// must equal the shipped state's, or the replica STAYS quarantined
// (checksum-verified rejoin) rather than serving wrong rankings.
func (c *Cluster) resyncLocked(ctx context.Context, g, r, src int) error {
	start := time.Now()
	err := c.doResyncLocked(ctx, g, r, src)
	if c.met != nil {
		c.met.ResyncDur.ObserveSince(start)
	}
	if err != nil {
		c.log.Warnf("resync %d/%d from replica %d failed after %v: %v",
			g, r, src, time.Since(start).Round(time.Millisecond), err)
	} else {
		c.log.Infof("resync %d/%d from replica %d completed in %v",
			g, r, src, time.Since(start).Round(time.Millisecond))
	}
	return err
}

func (c *Cluster) doResyncLocked(ctx context.Context, g, r, src int) error {
	source, sink := c.groups[g][src], c.groups[g][r]
	if c.tryDeltaResync(ctx, g, r, src) {
		return nil
	}
	var st *ir.IndexState
	if err := c.withRetry(ctx, resyncRetries, resyncRetryBase, func() error {
		var err error
		st, err = source.SnapshotState(ctx)
		return err
	}); err != nil {
		return fmt.Errorf("dist: resync %d/%d: export from replica %d: %w", g, r, src, err)
	}
	if err := c.withRetry(ctx, resyncRetries, resyncRetryBase, func() error {
		return sink.RestoreState(ctx, st)
	}); err != nil {
		return fmt.Errorf("dist: resync %d/%d: import: %w", g, r, err)
	}
	// Checksum-verified rejoin: before the replica re-enters routing,
	// its content must provably equal what was shipped.
	want := st.Checksum()
	var got NodeLoad
	verr := c.withRetry(ctx, resyncRetries, resyncRetryBase, func() error {
		nctx, cancel := c.nodeCtx(ctx)
		defer cancel()
		var err error
		got, err = sink.LoadChecksum(nctx)
		return err
	})
	if verr != nil || got.Checksum != want {
		c.markDiverged(g, r)
		if verr != nil {
			return fmt.Errorf("dist: resync %d/%d: post-restore checksum probe: %w", g, r, verr)
		}
		return fmt.Errorf("dist: resync %d/%d: post-restore checksum %s does not match shipped state %s — replica stays quarantined", g, r, got.Checksum, want)
	}
	// Count the full resync (and its shipped bytes) only now that it is
	// verified: a rejoin that failed verification leaves the replica
	// quarantined and must not be reported as a completed heal.
	if bytes, err := persist.SizeOf(st); err == nil {
		c.resyncBytes.Add(uint64(bytes))
	}
	c.resyncFullCount.Add(1)
	c.finishResync(g, r)
	return nil
}

// tryDeltaResync attempts the log-suffix path of resyncLocked and
// reports whether it fully healed (applied AND checksum-verified)
// replica r from src. Every failure — compacted log, position
// mismatch, transfer error, checksum disagreement — returns false and
// the caller falls back to the full snapshot; the fallback overwrites
// whatever a partial delta left behind.
func (c *Cluster) tryDeltaResync(ctx context.Context, g, r, src int) bool {
	source, sink := c.groups[g][src], c.groups[g][r]
	nctx, cancel := c.nodeCtx(ctx)
	target, err := sink.Load(nctx)
	cancel()
	if err != nil {
		return false
	}
	ops, err := source.OpsSince(ctx, target.LogPos)
	if err != nil {
		return false
	}
	if err := sink.ApplyOps(ctx, target.LogPos, ops); err != nil {
		return false
	}
	// Verify: the whole point of the delta gamble. Fresh digests from
	// both ends; the group ingest lock (held by our caller) guarantees
	// nothing is being written between the two probes.
	var srcLoad, tgtLoad NodeLoad
	nctx, cancel = c.nodeCtx(ctx)
	srcLoad, err = source.LoadChecksum(nctx)
	cancel()
	if err != nil || srcLoad.Checksum == "" {
		return false
	}
	nctx, cancel = c.nodeCtx(ctx)
	tgtLoad, err = sink.LoadChecksum(nctx)
	cancel()
	if err != nil || tgtLoad.Checksum != srcLoad.Checksum {
		return false
	}
	c.resyncBytes.Add(uint64(persist.OpsSize(ops)))
	c.resyncDeltaCount.Add(1)
	c.finishResync(g, r)
	return true
}

// finishResync records a verified resync, already counted by its
// caller: quarantine lifts, the group's statistics go stale.
func (c *Cluster) finishResync(g, r int) {
	c.markResynced(g, r)
	// The replica's content changed behind the group's statistics:
	// logically it now equals the group (same stats), but a resync that
	// repaired real divergence may shift the group's df/Σdf — pull them
	// again.
	c.invalidateGroups(g)
}

// RunAntiEntropy runs CheckReplicas with repair on every interval
// until ctx cancels — the background self-healing loop a coordinator
// starts once at boot. Failures are absorbed: an unreachable replica
// is simply checked again next interval. Each pass is bounded to the
// interval itself: probes and resync transfers hold per-group ingest
// locks, and a peer that black-holes mid-transfer must abort the pass
// (releasing the lock, unblocking writes) rather than wedge the loop
// and the partition forever. A resync of a fragment too large to ship
// within one interval simply needs a larger interval.
//
// Each sleep is jittered over [0.5·interval, 1.5·interval): multiple
// coordinators (or many groups behind one) started together must not
// probe — and stall ingest — in lockstep forever.
func (c *Cluster) RunAntiEntropy(ctx context.Context, interval time.Duration) {
	t := time.NewTimer(jitterInterval(interval))
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			tctx, cancel := context.WithTimeout(ctx, interval)
			c.CheckReplicas(tctx, true)
			cancel()
			t.Reset(jitterInterval(interval))
		}
	}
}
