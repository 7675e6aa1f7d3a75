//! Microbenchmarks of every transposition engine on representative
//! shapes: the large near-square case of Figures 3–6, the skinny AoS case
//! of Figure 7, and an awkward prime-dimension case where tiled baselines
//! degenerate.

use ipt_bench::micro::{BenchmarkId, Criterion, Throughput};
use ipt_bench::{criterion_group, criterion_main};
use ipt_core::Scratch;
use ipt_parallel::ParOptions;
use std::hint::black_box;

fn fill(buf: &mut [u64]) {
    for (i, v) in buf.iter_mut().enumerate() {
        *v = i as u64;
    }
}

fn bench_engines(c: &mut Criterion) {
    let shapes: &[(&str, usize, usize)] = &[
        ("square-768", 768, 768),
        ("rect-1000x777", 1000, 777),
        ("skinny-65536x8", 65536, 8),
        ("prime-911x733", 911, 733),
    ];
    for &(label, m, n) in shapes {
        let mut g = c.benchmark_group(format!("transpose/{label}"));
        g.throughput(Throughput::Bytes((2 * m * n * 8) as u64));
        g.sample_size(10);

        let mut buf = vec![0u64; m * n];

        g.bench_function(BenchmarkId::from_parameter("core-c2r"), |b| {
            let mut s = Scratch::new();
            b.iter(|| {
                fill(&mut buf);
                ipt_core::c2r(black_box(&mut buf), m, n, &mut s);
            })
        });
        g.bench_function(BenchmarkId::from_parameter("core-r2c-swapped"), |b| {
            let mut s = Scratch::new();
            b.iter(|| {
                fill(&mut buf);
                ipt_core::r2c(black_box(&mut buf), n, m, &mut s);
            })
        });
        g.bench_function(BenchmarkId::from_parameter("parallel-cache-aware"), |b| {
            let opts = ParOptions::default();
            b.iter(|| {
                fill(&mut buf);
                ipt_parallel::c2r_parallel(black_box(&mut buf), m, n, &opts).unwrap();
            })
        });
        g.bench_function(BenchmarkId::from_parameter("soa-to-aos"), |b| {
            b.iter(|| {
                fill(&mut buf);
                ipt_aos_soa::soa_to_aos(black_box(&mut buf), n, m).unwrap();
            })
        });
        g.bench_function(BenchmarkId::from_parameter("baseline-cycle-marked"), |b| {
            b.iter(|| {
                fill(&mut buf);
                ipt_baselines::transpose_cycle_following_marked(black_box(&mut buf), m, n);
            })
        });
        g.bench_function(BenchmarkId::from_parameter("baseline-gustavson"), |b| {
            b.iter(|| {
                fill(&mut buf);
                ipt_baselines::transpose_gustavson(black_box(&mut buf), m, n);
            })
        });
        g.bench_function(BenchmarkId::from_parameter("baseline-sung"), |b| {
            b.iter(|| {
                fill(&mut buf);
                ipt_baselines::transpose_sung(black_box(&mut buf), m, n);
            })
        });
        if ipt_baselines::dow_supports(m, n) {
            g.bench_function(BenchmarkId::from_parameter("baseline-dow"), |b| {
                b.iter(|| {
                    fill(&mut buf);
                    ipt_baselines::transpose_dow(black_box(&mut buf), m, n);
                })
            });
        }
        g.bench_function(BenchmarkId::from_parameter("out-of-place"), |b| {
            let mut dst = vec![0u64; m * n];
            b.iter(|| {
                fill(&mut buf);
                ipt_baselines::oop::transpose_into(black_box(&buf), &mut dst, m, n);
            })
        });
        g.finish();
    }
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
