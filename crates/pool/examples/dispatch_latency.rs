//! Wall time of an empty `par_chunks` dispatch, with the resident workers
//! spinning (dispatches back to back) and parked (after an idle gap far
//! longer than their spin window). The difference is the cost of waking a
//! parked thread, which sizes the workers' spin window.
//!
//! ```sh
//! cargo run --release -p ipt-pool --example dispatch_latency -- [threads] [rounds]
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

fn median_us(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median wall time of `rounds` empty dispatches over `threads` items,
/// each preceded by `gap` of sleep.
fn probe(pool: ipt_pool::Pool, threads: usize, rounds: usize, gap: Duration) -> f64 {
    let times = (0..rounds)
        .map(|_| {
            if !gap.is_zero() {
                std::thread::sleep(gap);
            }
            let t = Instant::now();
            pool.par_chunks(0..threads, 1, |r| {
                black_box(r);
            })
            .unwrap();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median_us(times)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let threads: usize = args.next().map_or(2, |a| a.parse().expect("threads"));
    let rounds: usize = args.next().map_or(2000, |a| a.parse().expect("rounds"));
    let pool = ipt_pool::Pool::new(threads);
    probe(pool, threads, 10, Duration::ZERO); // start the workers
    let spinning = probe(pool, threads, rounds, Duration::ZERO);
    let parked = probe(pool, threads, rounds / 10, Duration::from_millis(2));
    println!("threads {threads}: empty dispatch median {spinning:.2} us with workers spinning, {parked:.2} us parked");
}
