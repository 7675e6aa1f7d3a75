//! The benchmark's only reader of `ipt_pool::stats`.
//!
//! A [`Window`] brackets one call; closing it yields that call's
//! [`LayerDelta`]: pool counters, per-worker chunks, row-shuffle kernel
//! hits, scheduler weights and the per-phase wall-time split. Everything
//! else in the benchmark works on `LayerDelta`, so re-pointing the
//! benchmark at another stats recorder changes this file only.

use ipt_pool::stats::{self, PoolStats};

/// A stats snapshot taken when a call starts.
#[derive(Debug)]
pub struct Window(PoolStats);

/// Start a window.
pub fn open() -> Window {
    Window(stats::snapshot())
}

/// One phase's share of a call (or of several, once accumulated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseDelta {
    /// Phase name, as `ipt_parallel::phases` spells it.
    pub name: &'static str,
    /// Wall time in the phase.
    pub nanos: u64,
    /// Payload bytes the phase moved (zero when a rotation is a no-op).
    pub bytes: u64,
    /// Wall time of the passes that moved bytes: the denominator of the
    /// phase's throughput, so no-op rotations do not dilute it.
    pub moving_nanos: u64,
}

/// Counter and timer deltas over one or more calls.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerDelta {
    /// Pool worker parts dispatched.
    pub tasks: u64,
    /// Pool work items processed.
    pub chunks: u64,
    /// Scratch requests that grew an allocation.
    pub scratch_allocs: u64,
    /// Scratch requests served from existing capacity.
    pub scratch_reuses: u64,
    /// Worker panics contained by the pool.
    pub panics_contained: u64,
    /// Recovery re-attempts.
    pub retries: u64,
    /// Cycle-bundle schedules dispatched.
    pub sched_schedules: u64,
    /// Sum over schedules of the heaviest bundle's weight.
    pub sched_max_weight: u64,
    /// Sum over schedules of the lightest bundle's weight.
    pub sched_min_weight: u64,
    /// Per-phase split, in first-seen order.
    pub phases: Vec<PhaseDelta>,
    /// Chunks processed per worker id.
    pub worker_chunks: Vec<u64>,
    /// Row-shuffle kernel hits by kernel name.
    pub kernels: Vec<(&'static str, u64)>,
}

impl Window {
    /// End the window: the deltas since [`open`].
    pub fn close(self) -> LayerDelta {
        let d = stats::snapshot().delta_since(&self.0);
        let mut worker_chunks = Vec::new();
        for w in &d.workers {
            if worker_chunks.len() <= w.worker {
                worker_chunks.resize(w.worker + 1, 0);
            }
            worker_chunks[w.worker] = w.chunks;
        }
        LayerDelta {
            tasks: d.tasks,
            chunks: d.chunks,
            scratch_allocs: d.scratch_allocs,
            scratch_reuses: d.scratch_reuses,
            panics_contained: d.panics_contained,
            retries: d.retries_attempted,
            sched_schedules: d.sched.schedules,
            sched_max_weight: d.sched.max_weight,
            sched_min_weight: d.sched.min_weight,
            phases: d
                .phases
                .iter()
                .map(|p| PhaseDelta {
                    name: p.name,
                    nanos: p.nanos,
                    bytes: p.bytes,
                    moving_nanos: if p.bytes > 0 { p.nanos } else { 0 },
                })
                .collect(),
            worker_chunks,
            kernels: d.kernels.iter().map(|k| (k.name, k.hits)).collect(),
        }
    }
}

impl LayerDelta {
    /// The split for phase `name`, if it ran.
    pub fn phase(&self, name: &str) -> Option<&PhaseDelta> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Wall time inside any phase.
    pub fn phase_nanos(&self) -> u64 {
        self.phases.iter().map(|p| p.nanos).sum()
    }

    /// `(phase, nanos)` pairs, the measured side of a model comparison.
    pub fn phase_split(&self) -> Vec<(&'static str, u64)> {
        self.phases.iter().map(|p| (p.name, p.nanos)).collect()
    }

    /// Hits of row-shuffle kernel `name`.
    pub fn kernel_hits(&self, name: &str) -> u64 {
        self.kernels
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |&(_, h)| h)
    }

    /// Add another delta into this one (phases and kernels by name,
    /// workers by id).
    pub fn add(&mut self, o: &LayerDelta) {
        self.tasks += o.tasks;
        self.chunks += o.chunks;
        self.scratch_allocs += o.scratch_allocs;
        self.scratch_reuses += o.scratch_reuses;
        self.panics_contained += o.panics_contained;
        self.retries += o.retries;
        self.sched_schedules += o.sched_schedules;
        self.sched_max_weight += o.sched_max_weight;
        self.sched_min_weight += o.sched_min_weight;
        for p in &o.phases {
            match self.phases.iter_mut().find(|q| q.name == p.name) {
                Some(q) => {
                    q.nanos += p.nanos;
                    q.bytes += p.bytes;
                    q.moving_nanos += p.moving_nanos;
                }
                None => self.phases.push(p.clone()),
            }
        }
        if self.worker_chunks.len() < o.worker_chunks.len() {
            self.worker_chunks.resize(o.worker_chunks.len(), 0);
        }
        for (total, c) in self.worker_chunks.iter_mut().zip(&o.worker_chunks) {
            *total += c;
        }
        for &(name, hits) in &o.kernels {
            match self.kernels.iter_mut().find(|(k, _)| *k == name) {
                Some((_, h)) => *h += hits,
                None => self.kernels.push((name, hits)),
            }
        }
    }

    /// Scratch reuses over scratch requests; 0 with no requests.
    pub fn scratch_reuse_frac(&self) -> f64 {
        let total = self.scratch_allocs + self.scratch_reuses;
        if total == 0 {
            0.0
        } else {
            self.scratch_reuses as f64 / total as f64
        }
    }

    /// Most over fewest chunks per worker; 0 when no worker ran, and
    /// measured over the workers that ran at least one chunk.
    pub fn worker_chunk_spread(&self) -> f64 {
        let ran: Vec<u64> = self
            .worker_chunks
            .iter()
            .copied()
            .filter(|&c| c > 0)
            .collect();
        match (ran.iter().max(), ran.iter().min()) {
            (Some(&max), Some(&min)) => max as f64 / min as f64,
            _ => 0.0,
        }
    }

    /// Summed heaviest over summed lightest bundle weight; 0 when the
    /// cycle-bundle scheduler did not run.
    pub fn sched_imbalance(&self) -> f64 {
        if self.sched_schedules == 0 || self.sched_min_weight == 0 {
            0.0
        } else {
            self.sched_max_weight as f64 / self.sched_min_weight as f64
        }
    }
}
