//! Tests of the benchmark's own logic: the tail rule, self-time
//! arithmetic, seed determinism, the metric-name grammar, failure
//! counting and the refusal rule.

use ipt_core::check::{fill_pattern, is_transposed_pattern};
use ipt_core::json::Json;
use ipt_core::Layout;
use ipt_parallel::{transpose_parallel, ParOptions};

use perfbench::env::refusal;
use perfbench::metrics::{self, assemble, result_line, valid_name};
use perfbench::stats::{median, percentile, tail_percentile};
use perfbench::tally::Tally;
use perfbench::trace::{chrome_trace, self_and_total, self_times, Span};
use perfbench::workload::{ShapeStream, Workload, BLOCK};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(80), Some(87.5));
    // Capped at p90 from 100 samples on.
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(50_000), Some(90.0));
    // Exactly ten samples lie beyond the chosen rank below the cap, and
    // at least ten at it.
    for n in [20usize, 57, 99, 100, 423, 5000] {
        let p = tail_percentile(n).unwrap();
        let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let v = percentile(&xs, p).unwrap();
        let beyond = xs.iter().filter(|&&x| x > v).count();
        assert!(beyond >= 10, "n={n} p={p}");
        assert!(n >= 100 || beyond == 10, "n={n} p={p} beyond={beyond}");
    }
    // A few more samples barely move the percentile.
    let (a, b) = (tail_percentile(60).unwrap(), tail_percentile(63).unwrap());
    assert!((b - a).abs() < 1.0, "{a} vs {b}");
}

#[test]
fn median_and_tail_of_a_tally() {
    let mut t = Tally::default();
    for ms in 1..=40u64 {
        t.record(1000, ms * 1_000_000, Ok::<(), ()>(()), || true);
    }
    assert_eq!(t.p50_ms(), 20.0);
    // 40 samples: rank 30 (p75) leaves exactly ten beyond.
    assert_eq!(t.tail_ms(), (75.0, 30.0));
    // No copy reference recorded: no copy-anchored fraction.
    assert_eq!(t.frac_of_copy(), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[1.0, 2.0]), Some(1.5));
    assert_eq!(median(&[]), None);
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        call: 1,
        attributed: Vec::new(),
    }
}

#[test]
fn self_time_subtracts_the_union_of_children_and_the_attributed_split() {
    let mut spans = vec![
        span("call", 0, 100, None),
        span("a", 10, 30, Some(0)),
        // Overlaps `a`: only 30..40 is new coverage.
        span("b", 20, 40, Some(0)),
        // Runs past its parent: clipped at 100.
        span("c", 90, 120, Some(0)),
        span("inner", 12, 18, Some(1)),
        span("engine", 50, 80, Some(0)),
    ];
    spans[5].attributed = vec![("row_shuffle", 10), ("col_shuffle", 15)];
    let selfs = self_times(&spans);
    // call: 100 - (20 + 10 + 10 + 30) = 30.
    assert_eq!(selfs[0], 30);
    // a: 20 - 6 = 14; b, c and inner have no children.
    assert_eq!(&selfs[1..5], &[14, 20, 30, 6]);
    // engine: 30 - 25 attributed.
    assert_eq!(selfs[5], 5);
    assert_eq!(self_and_total(&spans, &selfs, "engine"), (5, 30));
    // Attribution larger than the span saturates rather than wrapping.
    spans[5].attributed = vec![("col_shuffle", 1000)];
    assert_eq!(self_times(&spans)[5], 0);
}

#[test]
fn chrome_trace_carries_every_span_with_self_time() {
    let spans = vec![span("call", 0, 2000, None), span("x", 500, 1500, Some(0))];
    let doc = chrome_trace(&spans, vec![("workload", Json::Str("w".into()))]);
    let text = doc.render_checked().unwrap();
    let back = Json::parse(&text).unwrap();
    let events = back.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert_eq!(events.len(), 2);
    let args = events[0].get("args").unwrap();
    assert_eq!(args.get("self_us").and_then(Json::as_f64), Some(1.0));
    assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(1.0));
    assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
}

#[test]
fn same_seed_same_shapes_and_another_seed_other_shapes() {
    for w in Workload::ALL {
        let a: Vec<_> = w.shapes(42).take(100).collect();
        let b: Vec<_> = w.shapes(42).take(100).collect();
        let c: Vec<_> = w.shapes(43).take(100).collect();
        assert_eq!(a, b, "{}", w.name());
        assert_ne!(a, c, "{}", w.name());
        let [(lo0, hi0), (lo1, hi1)] = w.ranges();
        for &(x, y) in &a {
            assert!(
                (lo0..hi0).contains(&x) && (lo1..hi1).contains(&y),
                "{}",
                w.name()
            );
        }
    }
}

#[test]
fn every_block_visits_every_stratum_of_each_dimension() {
    let (lo, hi) = (2048usize, 4096usize);
    let width = (hi - lo) as f64 / BLOCK as f64;
    let mut s = ShapeStream::new([(lo, hi), (lo, hi)], 9);
    for _ in 0..4 {
        let block: Vec<(usize, usize)> = s.by_ref().take(BLOCK).collect();
        for dim in [0, 1] {
            let mut strata: Vec<usize> = block
                .iter()
                .map(|&(a, b)| ((if dim == 0 { a } else { b } - lo) as f64 / width) as usize)
                .collect();
            strata.sort_unstable();
            assert_eq!(strata, (0..BLOCK).collect::<Vec<_>>());
        }
    }
}

#[test]
fn metric_names_follow_the_grammar_and_match_benchmark_json() {
    let per_layer = metrics::per_layer();
    let mut all: Vec<&str> = metrics::END_TO_END.iter().map(|&(n, _)| n).collect();
    all.extend(per_layer.iter().map(|(n, _)| n.as_str()));
    for name in &all {
        assert!(valid_name(name), "{name}");
    }
    let mut unique = all.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "metric names must be unique");
    for bad in [
        "",
        ".lead",
        "sp ace",
        "slash/no",
        "a".repeat(65).as_str(),
        "pct%",
    ] {
        assert!(!valid_name(bad), "{bad:?}");
    }
    assert!(valid_name("parallel.kernel.block8.hits"));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = metrics::END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layer: Vec<(String, String)> = per_layer
        .iter()
        .map(|(n, u)| (n.clone(), u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layer);
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn a_corrupted_output_counts_as_a_failed_call() {
    let (m, n) = (37usize, 29usize);
    let mut tally = Tally::default();
    let opts = ParOptions::default();
    for corrupt in [false, true, false] {
        let mut a = vec![0u64; m * n];
        fill_pattern(&mut a);
        let r = transpose_parallel(&mut a, m, n, Layout::RowMajor, &opts);
        if corrupt {
            a[m * n / 2] ^= 1;
        }
        tally.record((2 * m * n * 8) as u64, 1_000, r, || {
            is_transposed_pattern(&a, m, n, Layout::RowMajor)
        });
    }
    assert_eq!((tally.attempted, tally.failed), (3, 1));
    assert!((tally.fail_frac() - 1.0 / 3.0).abs() < 1e-12);
    // The failed call left the latency and throughput samples.
    assert_eq!(tally.samples.len(), 2);
    // An errored call fails without running its check.
    tally.record(8, 1, Err("aborted"), || {
        unreachable!("no check after an error")
    });
    assert_eq!((tally.attempted, tally.failed), (4, 2));
}

#[test]
fn frac_of_copy_is_the_median_per_call_ratio_to_its_copy() {
    let mut t = Tally::default();
    t.record_copy(8_000, 1_000);
    t.record(8_000, 4_000, Ok::<(), ()>(()), || true);
    // A second call on the same bytes (as `soa_to_aos` after
    // `aos_to_soa`) pairs with the same copy.
    t.record(8_000, 2_000, Ok::<(), ()>(()), || true);
    t.record_copy(8_000, 3_000);
    t.record(8_000, 6_000, Ok::<(), ()>(()), || true);
    // Per-call fractions 0.25, 0.5, 0.5.
    assert_eq!(t.frac_of_copy(), 0.5);
    assert_eq!(t.copy_gbps(), 4.0);
    assert_eq!(t.gbps(), 2.0);
    // A stalled call moves the tail, not the median.
    for _ in 0..3 {
        t.record_copy(8_000, 1_000);
        t.record(8_000, 2_000, Ok::<(), ()>(()), || true);
    }
    t.record_copy(8_000, 1_000);
    t.record(8_000, 900_000, Ok::<(), ()>(()), || true);
    assert_eq!(t.frac_of_copy(), 0.5);
    assert!(t.gbps() < 0.1);
}

#[test]
fn refusal_covers_debug_builds_and_program_changing_knobs() {
    let var = |k: &str| vec![(k.to_string(), "1".to_string())];
    assert!(refusal("release", &[]).is_none());
    assert!(refusal("release", &var("IPT_THREADS")).is_none());
    assert!(refusal("debug", &[]).is_some());
    for k in ["IPT_CHECK", "IPT_RETRY", "IPT_KERNEL", "IPT_FAULT"] {
        let why = refusal("release", &var(k)).unwrap();
        assert!(why.contains(k), "{why}");
    }
}

#[test]
fn result_line_is_one_json_object_with_the_contract_keys() {
    let spec = vec![("gbps".to_string(), "GB/s"), ("setup_s".to_string(), "s")];
    let (report, absent) = assemble(&spec, &[("gbps".to_string(), 1.25)]);
    assert_eq!(absent, ["setup_s"]);
    let line = result_line(true, 10, 0, &report).unwrap();
    assert!(!line.contains('\n'));
    let doc = Json::parse(&line).unwrap();
    let Json::Obj(keys) = &doc else {
        panic!("{line}")
    };
    let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
    let gbps = doc.get("metrics").and_then(|m| m.get("gbps")).unwrap();
    assert_eq!(gbps.get("value").and_then(Json::as_f64), Some(1.25));
    assert_eq!(gbps.get("unit").and_then(Json::as_str), Some("GB/s"));
    let nan = assemble(&spec, &[("gbps".to_string(), f64::NAN)]).0;
    assert!(result_line(true, 1, 0, &nan).is_err());
}
