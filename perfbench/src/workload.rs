//! The benchmark's workloads and their seeded shape streams.
//!
//! Every workload draws two dimensions per call from fixed half-open
//! ranges. Draws come in Latin-hypercube blocks of [`BLOCK`] shapes: in
//! each block every dimension visits each of [`BLOCK`] equal strata once,
//! in a seeded random order. The marginal of each dimension is still
//! exactly uniform over its range, but the size mix of a run depends far
//! less on the seed than with independent draws, which keeps medians
//! steady across seeds without fixing the shapes.

use ipt_core::check::Rng;

/// Shapes per Latin-hypercube block.
pub const BLOCK: usize = 16;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Out-of-cache `u64` transposes through `transpose_parallel`.
    LargeRandom,
    /// Cache-resident `u64` transposes, thousands back to back.
    SmallStream,
    /// `aos_to_soa` then `soa_to_aos` on `u32` structs.
    AosSoa,
    /// `ipt-cli transpose` of a generated 8-byte-element file.
    CliFile,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::LargeRandom,
        Workload::SmallStream,
        Workload::AosSoa,
        Workload::CliFile,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LargeRandom => "large_random",
            Workload::SmallStream => "small_stream",
            Workload::AosSoa => "aos_soa",
            Workload::CliFile => "cli_file",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Half-open ranges of the two drawn dimensions: rows and columns of
    /// a row-major matrix, or structs and fields for [`Workload::AosSoa`].
    pub fn ranges(self) -> [(usize, usize); 2] {
        match self {
            Workload::LargeRandom => [(2048, 4096), (2048, 4096)],
            Workload::SmallStream => [(32, 512), (32, 512)],
            Workload::AosSoa => [(1 << 20, 1 << 21), (3, 9)],
            Workload::CliFile => [(1024, 2048), (1024, 2048)],
        }
    }

    /// Bytes per element.
    pub fn elem_bytes(self) -> usize {
        match self {
            Workload::AosSoa => 4,
            _ => 8,
        }
    }

    /// Elements in the largest shape the stream can draw.
    pub fn max_elems(self) -> usize {
        let [(_, a), (_, b)] = self.ranges();
        (a - 1) * (b - 1)
    }

    /// The fixed shape of the set-up warm-up call: mid-range and with
    /// `gcd > 1`, and the same for every seed, so set-up time measures
    /// start-up cost rather than the luck of the first draw.
    pub fn warmup_shape(self) -> (usize, usize) {
        match self {
            Workload::LargeRandom => (3072, 3000),
            Workload::SmallStream => (272, 240),
            Workload::AosSoa => (3 << 19, 6),
            Workload::CliFile => (1536, 1500),
        }
    }

    /// The seeded, endless shape stream of this workload.
    pub fn shapes(self, seed: u64) -> ShapeStream {
        ShapeStream::new(self.ranges(), seed)
    }
}

/// An endless stream of `(a, b)` shapes drawn from two ranges in seeded
/// Latin-hypercube blocks (see the module docs).
#[derive(Debug, Clone)]
pub struct ShapeStream {
    rng: Rng,
    ranges: [(usize, usize); 2],
    block: Vec<(usize, usize)>,
}

impl ShapeStream {
    /// A stream over `ranges` whose every draw is fixed by `seed`.
    pub fn new(ranges: [(usize, usize); 2], seed: u64) -> ShapeStream {
        for (lo, hi) in ranges {
            assert!(lo < hi, "empty shape range {lo}..{hi}");
        }
        ShapeStream {
            // Decorrelate neighbouring seeds before the first draw.
            rng: Rng::new(seed ^ 0x005e_ed0f_b10c_5eed),
            ranges,
            block: Vec::with_capacity(BLOCK),
        }
    }

    /// One dimension of a block: stratum `perm[i]` of `BLOCK` for draw
    /// `i`. `perm[i] * span + r` is uniform over `[0, BLOCK * span)`, so
    /// dividing by `BLOCK` gives every value of the range exactly
    /// `BLOCK` ways: uniform marginal, one draw per stratum.
    fn stratified(&mut self, (lo, hi): (usize, usize)) -> Vec<usize> {
        let span = hi - lo;
        let mut perm: Vec<usize> = (0..BLOCK).collect();
        for i in (1..BLOCK).rev() {
            perm.swap(i, self.rng.range(0..i + 1));
        }
        perm.into_iter()
            .map(|s| lo + (s * span + self.rng.range(0..span)) / BLOCK)
            .collect()
    }
}

impl Iterator for ShapeStream {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.block.is_empty() {
            let a = self.stratified(self.ranges[0]);
            let b = self.stratified(self.ranges[1]);
            // Popped from the back: reverse so draws leave in block order.
            self.block = a.into_iter().zip(b).rev().collect();
        }
        self.block.pop()
    }
}
