//! `ipt calibrate` — run the kernel microprobe and persist the profile.
//!
//! The library never probes implicitly ([`ipt_core::kernels::calibrate`]
//! keeps dispatch surprise-free), so this subcommand is the explicit
//! step that pays the measurement cost: it runs the probe ladder,
//! writes the `ipt-calibration-v2` profile to the cache path, and
//! prints the per-rung crossover table. Subsequent `ipt` processes
//! (and any embedder of `ipt_core`) pick the profile up lazily through
//! `IPT_CALIBRATION` / the default cache path.

use std::path::PathBuf;
use std::process::ExitCode;

use ipt_core::kernels::calibrate::{self, CalibrationProfile};
use ipt_core::kernels::RowShuffleKernel;

pub const CALIBRATE_USAGE: &str = "\
ipt calibrate — measure per-host kernel crossovers, persist the profile

USAGE:
  ipt calibrate [--force] [--out PATH]
  ipt calibrate --show [--out PATH]

Runs the startup microprobe (scalar vs block8 on a ladder of synthetic
shapes spanning the c/b space) and writes the measured crossovers as an
ipt-calibration-v2 JSON profile. The profile path is --out if given,
else $IPT_CALIBRATION, else target/ipt-calibration.json (falling back to
the system temp dir outside a cargo tree). With a valid profile already
present the probe is skipped — pass --force to re-measure. A profile of
an older schema (v1 named the deleted block4 kernel) is not valid and
is re-probed. --show prints the stored profile without probing.

Once a profile exists, ipt_core::kernels::select resolves dispatch as
IPT_KERNEL override > calibrated profile > static heuristic, and bench
reports stamp which tier decided plus the profile's content hash.";

struct CalOpts {
    force: bool,
    show: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<CalOpts, String> {
    let mut o = CalOpts {
        force: false,
        show: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--force" => o.force = true,
            "--show" => o.show = true,
            "--out" => {
                o.out = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| "missing value for --out".to_string())?,
                )
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if o.force && o.show {
        return Err("--show reads the stored profile; it cannot combine with --force".to_string());
    }
    Ok(o)
}

/// The profile path this invocation operates on: `--out` wins, else the
/// library's own resolution (`IPT_CALIBRATION`, default cache path).
fn profile_path(opts: &CalOpts) -> Result<PathBuf, String> {
    if let Some(out) = &opts.out {
        return Ok(PathBuf::from(out));
    }
    calibrate::resolve_path().ok_or_else(|| {
        format!(
            "calibration persistence is disabled ({}={:?}); pass --out PATH to write anyway",
            calibrate::ENV_PATH,
            std::env::var(calibrate::ENV_PATH).unwrap_or_default()
        )
    })
}

/// Entry point for the `calibrate` subcommand (exit 0 ok, 2 error).
pub fn main(args: &[String]) -> ExitCode {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(msg) if msg.is_empty() => {
            println!("{CALIBRATE_USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{CALIBRATE_USAGE}");
            return ExitCode::from(2);
        }
    };
    let path = match profile_path(&opts) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    if opts.show {
        return match CalibrationProfile::load(&path) {
            Ok(profile) => {
                println!("calibration profile {}", path.display());
                print_profile(&profile);
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::from(2)
            }
        };
    }
    if !opts.force {
        if let Ok(existing) = CalibrationProfile::load(&path) {
            println!(
                "calibration profile {} is up to date (hash {}); --force re-measures",
                path.display(),
                existing.hash()
            );
            return ExitCode::SUCCESS;
        }
    }
    let profile = calibrate::probe();
    if let Err(msg) = profile.save(&path) {
        eprintln!("error: {msg}");
        return ExitCode::from(2);
    }
    println!(
        "calibrated {} rungs -> {}",
        profile.probes.len(),
        path.display()
    );
    print_profile(&profile);
    ExitCode::SUCCESS
}

/// Print the per-rung crossover table plus the content hash that bench
/// reports will stamp.
fn print_profile(profile: &CalibrationProfile) {
    println!(
        "{:>7} {:>5} {:>5} {:>3} {:>11} {:>11}  best",
        "m", "n", "c", "b", "scalar", "block8"
    );
    for r in &profile.probes {
        let ns = |k: RowShuffleKernel| {
            let slot = RowShuffleKernel::ALL.iter().position(|&x| x == k).unwrap();
            format!("{:.3}", r.nanos_per_elem[slot])
        };
        println!(
            "{:>7} {:>5} {:>5} {:>3} {:>8} ns {:>8} ns  {}",
            r.m,
            r.n,
            r.c,
            r.b,
            ns(RowShuffleKernel::Scalar),
            ns(RowShuffleKernel::Block8),
            r.best.name()
        );
    }
    println!("profile hash {}", profile.hash());
}
