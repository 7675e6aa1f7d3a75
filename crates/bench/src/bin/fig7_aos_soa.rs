//! Figure 7: in-place Array-of-Structures → Structure-of-Arrays
//! conversion throughput.
//!
//! Paper setup: 10000 randomly sized AoS workloads, structure size
//! uniform in [2, 32) 64-bit elements, structure count uniform in
//! [10^4, 10^7), on a Tesla K20c. The specialized skinny-matrix transpose
//! (all column operations on chip, §6.1) reached a median of 34.3 GB/s
//! and a maximum of 51 GB/s — versus 19.5 GB/s median for the general
//! transpose (Table 2).
//!
//! Defaults scale the counts down; `--full` restores paper scale. In
//! measured mode the "specialized" row is `aos_to_soa`: the one column
//! engine oriented as §6.1 prescribes (the `fields` dimension as the
//! view's row count, so columns are `fields` tall). The "general" row
//! forces the §5.2 orientation (C2R on the `n_structs x fields` view,
//! columns `n_structs` tall) on the same engine, so the advantage
//! measured is the orientation's — the *shape* claim — on any host.

use ipt_bench::harness::*;
use memsim::model::{DeviceModel, PassCost};

/// Modeled throughput of the §6.1 specialized conversion on the K20c
/// device model: the fused column pass runs on chip, and the row
/// shuffle's gathers are *strided by the structure size* — small
/// structures make the gathers nearly sequential (the source of the
/// paper's 51 GB/s maximum), large ones approach the general random
/// gather's L2-bound rate.
fn skinny_model_gbps(d: &DeviceModel, n_structs: usize, fields: usize, elem: usize) -> f64 {
    let coprime = {
        let (mut a, mut b) = (n_structs as u64, fields as u64);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a == 1
    };
    // Stride-density bonus: a stride-`fields` sweep touches each line
    // `line/(fields*elem)` times, so the gather approaches streaming as
    // structures shrink.
    let density = d.line_bytes as f64 / (fields * elem) as f64;
    let gather_factor = (d.l2_factor * density).min(1.0);
    let mut passes = vec![
        PassCost {
            dram_bytes_per_byte: 2.0,
            bandwidth_factor: 1.0, // fused on-chip column pass
        },
        PassCost {
            dram_bytes_per_byte: 4.0,
            bandwidth_factor: gather_factor, // strided row shuffle
        },
    ];
    if !coprime {
        passes.push(PassCost {
            dram_bytes_per_byte: 2.0,
            bandwidth_factor: 1.0,
        });
    }
    d.combine(n_structs, fields, elem, &passes)
}

fn run_model_mode(args: &Args) {
    let device = DeviceModel::default();
    let mut rng = Rng64::new(args.seed);
    let mut csv = Csv::new("kind,n_structs,fields,gbps");
    let mut spec = Vec::new();
    for _ in 0..args.samples {
        let fields = rng.range(2, 32);
        let lo = (args.min_dim as f64).ln();
        let hi = (args.max_dim as f64).ln();
        let u = (rng.next_u64() % 1_000_000) as f64 / 1_000_000.0;
        let n_structs = ((lo + u * (hi - lo)).exp() as usize).max(2);
        let s = skinny_model_gbps(&device, n_structs, fields, 8);
        csv.row(format!("specialized,{n_structs},{fields},{s:.4}"));
        spec.push(s);
    }
    println!(
        "\n{}",
        ascii_histogram(&spec, 20, "specialized AoS->SoA (K20c model)")
    );
    println!(
        "model median specialized = {:.2} GB/s, max = {:.2}",
        median(&spec),
        percentile(&spec, 100.0)
    );
    println!(
        "\npaper (K20c): specialized median 34.3 GB/s, max 51 GB/s.\n\
         (No modeled 'general' row: the paper gives no general-on-skinny\n\
         numbers, and modeling its poor occupancy on degenerate shapes is\n\
         outside the bandwidth model; the measured mode compares both on\n\
         this host instead.)"
    );
    csv.finish(&args.csv);
}

fn main() {
    let usage = "fig7_aos_soa [--samples N] [--min LOG10] [--max LOG10] [--seed N] \
                 [--mode measured|model] [--full] [--verify] [--csv PATH]";
    let mut args = Args::parse(usage);
    if args.samples == 0 {
        args.samples = if args.full { 10000 } else { 60 };
    }
    // min/max are log10 bounds of the structure count here.
    if args.min_dim == 0 {
        args.min_dim = if args.full { 10_000 } else { 1_000 };
    }
    if args.max_dim == 0 {
        args.max_dim = if args.full { 10_000_000 } else { 100_000 };
    }
    if args.mode.as_deref() == Some("model") {
        if args.samples == 60 {
            args.samples = 10_000; // model mode is free: paper-scale
        }
        args.min_dim = 10_000;
        args.max_dim = 10_000_000;
        println!(
            "Figure 7 (K20c model): {} AoS workloads, struct size [2, 32) u64, count [{}, {})",
            args.samples, args.min_dim, args.max_dim
        );
        run_model_mode(&args);
        return;
    }
    println!(
        "Figure 7: {} AoS workloads, struct size in [2, 32) u64, count in [{}, {})",
        args.samples, args.min_dim, args.max_dim
    );

    let mut rng = Rng64::new(args.seed);
    let mut csv = Csv::new("kind,n_structs,fields,gbps");
    let mut specialized = Vec::new();
    let mut general = Vec::new();

    for _ in 0..args.samples {
        let fields = rng.range(2, 32);
        // Log-uniform struct count, matching the paper's generator spirit.
        let lo = (args.min_dim as f64).ln();
        let hi = (args.max_dim as f64).ln();
        let u = (rng.next_u64() % 1_000_000) as f64 / 1_000_000.0;
        let n_structs = ((lo + u * (hi - lo)).exp() as usize).max(2);

        let mut buf = vec![0u64; n_structs * fields];
        fill_u64(&mut buf, fields as u64);
        let orig = if args.verify { buf.clone() } else { Vec::new() };

        // Specialized conversion (the Figure 7 subject): §6.1 orientation.
        let secs = time_secs(|| ipt_aos_soa::aos_to_soa(&mut buf, n_structs, fields).unwrap());
        let t = throughput_gbps(n_structs, fields, 8, secs);
        specialized.push(t);
        csv.row(format!("specialized,{n_structs},{fields},{t:.4}"));

        if args.verify {
            let want = ipt_core::check::reference_transpose(
                &orig,
                n_structs,
                fields,
                ipt_core::Layout::RowMajor,
            );
            assert_eq!(buf, want, "aos_to_soa wrong for {n_structs}x{fields}");
        }

        // General transpose on the same workload (for the shape claim),
        // forced to the §5.2 orientation so it cannot pick the §6.1 one.
        let mut buf2 = vec![0u64; n_structs * fields];
        fill_u64(&mut buf2, fields as u64);
        let secs = time_secs(|| {
            ipt_parallel::transpose_parallel_with(
                &mut buf2,
                n_structs,
                fields,
                ipt_core::Layout::RowMajor,
                ipt_core::Algorithm::C2r,
                &ipt_parallel::ParOptions::default(),
            )
            .unwrap()
        });
        let t = throughput_gbps(n_structs, fields, 8, secs);
        general.push(t);
        csv.row(format!("general,{n_structs},{fields},{t:.4}"));
    }

    println!(
        "\n{}",
        ascii_histogram(&specialized, 20, "specialized AoS->SoA (Fig. 7)")
    );
    println!(
        "{}",
        ascii_histogram(&general, 20, "general transpose on same workloads")
    );

    let (ms, mg) = (median(&specialized), median(&general));
    println!(
        "median specialized = {ms:.3} GB/s   max = {:.3} GB/s",
        percentile(&specialized, 100.0)
    );
    println!(
        "median general     = {mg:.3} GB/s   specialization advantage = {:.2}x",
        ms / mg.max(1e-12)
    );
    println!("\npaper (K20c): specialized median 34.3 GB/s, max 51 GB/s; general median 19.5 GB/s (1.76x)");
    csv.finish(&args.csv);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skinny_model_is_monotone_in_structure_density() {
        // Smaller structures -> denser strided gathers -> faster.
        let d = DeviceModel::default();
        let mut last = f64::INFINITY;
        for fields in [2usize, 4, 8, 16, 31] {
            let v = skinny_model_gbps(&d, 1_000_003, fields, 8); // prime count: coprime
            assert!(v <= last + 1e-9, "fields={fields}: {v} vs {last}");
            last = v;
        }
    }

    #[test]
    fn skinny_model_matches_paper_decade() {
        let d = DeviceModel::default();
        let mid = skinny_model_gbps(&d, 1_000_003, 16, 8);
        assert!((10.0..80.0).contains(&mid), "{mid}");
    }
}
