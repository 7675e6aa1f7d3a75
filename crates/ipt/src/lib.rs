//! # ipt — in-place matrix transposition by decomposition
//!
//! A Rust implementation of *Catanzaro, Keller, Garland: "A Decomposition
//! for In-place Matrix Transposition" (PPoPP 2014)*, as a facade over the
//! workspace's crates:
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`core`] | `ipt-core` | the algorithm: index math, C2R/R2C, sequential transpose |
//! | [`parallel`] | `ipt-parallel` | thread-parallel (via `ipt-pool`) + cache-aware implementations |
//! | [`pool`] | `ipt-pool` | the in-repo resident-worker thread pool and its [`pool::stats`] observability |
//! | [`aos_soa`] | `ipt-aos-soa` | AoS ⇄ SoA conversion, oriented as in §6.1 on the parallel engine |
//! | [`baselines`] | `ipt-baselines` | cycle-following / Gustavson / Sung comparators |
//! | [`warp`] | `warp-sim` | in-register SIMD transpose + coalesced AoS access |
//! | [`mem`] | `memsim` | the cache-line transaction bandwidth model |
//!
//! ## Quick start
//!
//! ```
//! use ipt::prelude::*;
//!
//! // Transpose a 1000 x 37 row-major matrix in place with O(max(m, n))
//! // auxiliary space.
//! let mut data: Vec<f64> = (0..1000 * 37).map(|i| i as f64).collect();
//! let mut scratch = Scratch::new();
//! transpose(&mut data, 1000, 37, Layout::RowMajor, &mut scratch);
//! assert_eq!(data[1], 37.0); // (0, 1) of the 37 x 1000 transpose
//!
//! // Or in parallel — the parallel entry points return a `Result`: a
//! // worker panic is contained by the pool and surfaced as a structured
//! // [`parallel::TransposeAborted`] instead of tearing down the process.
//! transpose_parallel(&mut data, 37, 1000, Layout::RowMajor, &ParOptions::default()).unwrap();
//! assert_eq!(data[1], 1.0);
//! ```
//!
//! See the repository's `examples/` directory for runnable scenarios
//! (quickstart, AoS→SoA particle update, warp-level coalescing study,
//! image rotation) and `DESIGN.md` / `EXPERIMENTS.md` for the paper
//! reproduction map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ipt_aos_soa as aos_soa;
pub use ipt_baselines as baselines;
pub use ipt_core as core;
pub use ipt_parallel as parallel;
pub use ipt_pool as pool;
pub use memsim as mem;
pub use warp_sim as warp;

/// The items most programs need, in one import.
pub mod prelude {
    pub use ipt_aos_soa::{aos_to_soa, soa_to_aos, SoaView};
    pub use ipt_core::{c2r, r2c, transpose, transpose_with, Algorithm, Layout, Matrix, Scratch};
    pub use ipt_parallel::{
        c2r_parallel, r2c_parallel, transpose_parallel, transpose_parallel_with, ParOptions,
        TransposeAborted,
    };
    pub use ipt_pool::PoolError;
    pub use memsim::{Memory, MemoryConfig};
    pub use warp_sim::{AccessStrategy, CoalescedPtr, CompiledTranspose, GpuSim, Warp};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_wires_the_crates_together() {
        let mut data: Vec<u32> = (0..12).collect();
        let mut scratch = Scratch::new();
        transpose(&mut data, 3, 4, Layout::RowMajor, &mut scratch);
        assert_eq!(data, [0, 4, 8, 1, 5, 9, 2, 6, 10, 3, 7, 11]);
        transpose_parallel(&mut data, 4, 3, Layout::RowMajor, &ParOptions::default()).unwrap();
        assert_eq!(data, (0..12).collect::<Vec<u32>>());
    }
}
