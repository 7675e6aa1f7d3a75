//! `perfbench`: the repository benchmark. See `README.md` beside this
//! crate; `run.py` builds `ipt-cli` and this binary, then runs it.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--cli PATH]
//! ```
//!
//! One process, one caller thread, closed loop: each call starts when
//! the previous one, its copy reference and its check have finished.
//! The pool runs at its default width with default `ParOptions`. The
//! last line of standard output is the JSON result.

use std::hint::black_box;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use ipt_core::check::{fill_pattern, is_transposed_pattern, PatternElem};
use ipt_core::error::try_transpose_erased;
use ipt_core::{Layout, Scratch};
use ipt_parallel::{transpose_parallel, ParOptions};
use memsim::model::DeviceModel;
use memsim::phases::{predict_c2r, predict_r2c, PhaseBreakdown};

use perfbench::env::EnvStamp;
use perfbench::layers::{self, LayerDelta};
use perfbench::metrics::{self, Metric};
use perfbench::stats::median;
use perfbench::sys::{peak_rss_kib, run_child, ChildRun};
use perfbench::tally::{gbps, Tally};
use perfbench::trace::{self, Tracer};
use perfbench::workload::{ShapeStream, Workload};

const USAGE: &str = "usage: perfbench --workload large_random|small_stream|aos_soa|cli_file \
--seed N --seconds S --trace 0|1 [--cli PATH-TO-ipt-cli]";

/// Set-up probes per end-to-end run; `setup_s` is their median.
const SETUP_PROBES: usize = 7;
/// Empty `par_chunks` dispatches timed between traced calls.
const DISPATCH_PROBES: usize = 5;
/// The span around each measured call into the parallel engine.
const TRANSPOSE_SPAN: &str = "ipt_parallel::transpose_parallel";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    cli: Option<PathBuf>,
    setup_probe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut cli) = (None, None, None, None, None);
    let mut setup_probe = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--cli" => cli = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload == Workload::CliFile && cli.is_none() {
        return Err("cli_file needs --cli PATH-TO-ipt-cli".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        cli,
        setup_probe,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        return setup_probe(&args);
    }
    let env = EnvStamp::capture();
    if !args.trace {
        if let Some(why) = env.refusal() {
            eprintln!("perfbench: refusing to report end-to-end metrics: {why}");
            return ExitCode::from(2);
        }
    }
    match run(&args, &env) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The copy reference of in-process calls: `src` copied into `dst` in
/// one part per pool worker, the first on the calling thread and the
/// rest on scoped threads — the memcpy roofline at the width the calls
/// run at, with one spawn and join as every parallel call pays. On a
/// shared host, thread wake-up latency swings with contention; a
/// reference that pays it moves with the calls, where a single-thread
/// memcpy does not.
fn par_copy<T: Copy + Send + Sync>(src: &[T], dst: &mut [T], threads: usize) {
    let part = src.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let mut parts = dst.chunks_mut(part).zip(src.chunks(part));
        let first = parts.next();
        for (d, c) in parts {
            s.spawn(move || d.copy_from_slice(c));
        }
        if let Some((d, c)) = first {
            d.copy_from_slice(c);
        }
    });
}

fn nanos(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Whether `data` holds the untransposed pattern `data[l] = l`.
fn is_pattern<T: PatternElem>(data: &[T]) -> bool {
    data.iter().enumerate().all(|(l, &x)| x == T::from_index(l))
}

// ---------------------------------------------------------------- set-up

/// Buffers and files a workload's calls run on.
enum State {
    /// `u64` matrices: the call buffer and the copy reference's target.
    Matrix { buf: Vec<u64>, dst: Vec<u64> },
    /// `u32` structs: the call buffer and the copy reference's target.
    Aos { buf: Vec<u32>, dst: Vec<u32> },
    /// Files of the CLI workload.
    Cli(CliFiles),
}

/// A zeroed buffer of `len` elements with every page committed, so page
/// faults fall in set-up and never in a timed call or copy.
fn committed<T: Copy + Default>(len: usize) -> Vec<T> {
    let mut v = vec![T::default(); len];
    v.fill(T::default());
    black_box(&mut v);
    v
}

/// Everything before the first timed call: buffers (or work files),
/// lazy pool and calibration start-up, and one checked warm-up call on
/// the workload's fixed warm-up shape. The warm-up's check is counted
/// in `checks`.
fn setup(w: Workload, cli: Option<&Path>, checks: &mut Tally) -> Result<State, String> {
    let (m, n) = w.warmup_shape();
    Ok(match w {
        Workload::LargeRandom | Workload::SmallStream => {
            let (mut buf, dst) = (committed(w.max_elems()), committed(w.max_elems()));
            let a = &mut buf[..m * n];
            fill_pattern(a);
            let r = transpose_parallel(a, m, n, Layout::RowMajor, &ParOptions::default());
            checks.record(0, 0, r, || is_transposed_pattern(a, m, n, Layout::RowMajor));
            State::Matrix { buf, dst }
        }
        Workload::AosSoa => {
            let (mut buf, dst) = (committed(w.max_elems()), committed(w.max_elems()));
            let a = &mut buf[..m * n];
            fill_pattern(a);
            let r = ipt_aos_soa::aos_to_soa(a, m, n);
            checks.record(0, 0, r, || is_transposed_pattern(a, m, n, Layout::RowMajor));
            State::Aos { buf, dst }
        }
        Workload::CliFile => {
            let files = CliFiles::new(cli.expect("cli_file always has --cli"));
            let r = files.gen(m, n, 0).and_then(|()| files.transpose(m, n));
            match r {
                Ok(run) => {
                    let ok = run.status.success();
                    checks.record(0, 0, ok.then_some(()).ok_or(()), || files.verify(m, n, 0));
                }
                Err(_) => {
                    checks.record(0, 0, Err(()), || false);
                }
            }
            State::Cli(files)
        }
    })
}

/// `--setup-probe`: set up, then print `ready` and how many checks
/// failed, and exit. The parent times spawn to `ready`, which covers
/// process start as well.
fn setup_probe(args: &Args) -> ExitCode {
    let mut checks = Tally::default();
    match setup(args.workload, args.cli.as_deref(), &mut checks) {
        Ok(_state) => {
            println!("ready {}", checks.failed);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Median set-up time over [`SETUP_PROBES`] fresh processes; each
/// probe's warm-up check is counted in `checks`.
fn measure_setup(args: &Args, checks: &mut Tally) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let mut secs = Vec::new();
    for _ in 0..SETUP_PROBES {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--setup-probe",
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
        ]);
        if let Some(cli) = &args.cli {
            cmd.arg("--cli").arg(cli);
        }
        let t = Instant::now();
        let mut child = cmd
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning set-up probe: {e}"))?;
        let mut line = String::new();
        let read =
            BufReader::new(child.stdout.take().expect("stdout was piped")).read_line(&mut line);
        let elapsed = t.elapsed().as_secs_f64();
        let status = child
            .wait()
            .map_err(|e| format!("waiting for set-up probe: {e}"))?;
        read.map_err(|e| format!("reading set-up probe: {e}"))?;
        let failed = line
            .strip_prefix("ready ")
            .and_then(|f| f.trim().parse::<u64>().ok());
        let (true, Some(failed)) = (status.success(), failed) else {
            return Err(format!("set-up probe failed ({status})"));
        };
        checks.attempted += 1;
        checks.failed += failed.min(1);
        secs.push(elapsed);
    }
    Ok(median(&secs).expect("at least one probe"))
}

// ------------------------------------------------------------- the loops

/// Per-layer accumulators of a traced pass.
#[derive(Debug, Default)]
struct Layers {
    /// Stats deltas summed over the measured calls.
    delta: LayerDelta,
    /// Measured calls that ran inside a stats window.
    calls: u64,
    /// Their summed wall time.
    call_nanos: u64,
    divergence: Vec<f64>,
    /// `(Eq. 37 bytes, nanos)` of the sequential `ipt_core::transpose`.
    seq: (u64, u64),
    /// `(Eq. 37 bytes, nanos)` of the Gustavson baseline.
    gustavson: (u64, u64),
    /// `(Eq. 37 bytes, nanos)` of in-process `try_transpose_erased`.
    erased: (u64, u64),
    dispatch_us: Vec<f64>,
    to_soa_ms: Vec<f64>,
    to_aos_ms: Vec<f64>,
    cli_read_ms: Vec<f64>,
    cli_transpose_ms: Vec<f64>,
    cli_write_ms: Vec<f64>,
    cli_process_ms: Vec<f64>,
}

impl Layers {
    fn record_call(&mut self, d: LayerDelta, call_ns: u64) {
        self.delta.add(&d);
        self.calls += 1;
        self.call_nanos += call_ns;
    }

    /// Time empty `par_chunks` dispatches over `nproc` items.
    fn probe_dispatch(&mut self, nproc: usize, checks: &mut Tally) {
        for _ in 0..DISPATCH_PROBES {
            let t = Instant::now();
            let r = ipt_pool::par_chunks(0..nproc, 1, |r| {
                black_box(r);
            });
            let ns = nanos(t);
            checks.record(0, 0, r, || true);
            self.dispatch_us.push(ns as f64 / 1e3);
        }
    }
}

/// Time `f` as a span `name` under `parent`; returns its result and
/// wall nanoseconds.
fn timed<R>(
    tr: &mut Tracer,
    name: &'static str,
    parent: usize,
    call: u64,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let s = tr.begin(name, Some(parent), call);
    let t = Instant::now();
    let r = f();
    let ns = nanos(t);
    tr.end(s);
    (r, ns)
}

/// Makes the calls of one run. Traced calls also open stats windows,
/// run the reference implementations on the same input and probe pool
/// dispatch; every check outside the measured calls lands in `checks`.
struct Runner {
    w: Workload,
    seed: u64,
    opts: ParOptions,
    model: DeviceModel,
    nproc: usize,
    threads: usize,
    seq64: Scratch<u64>,
    seq32: Scratch<u32>,
    layers: Layers,
    tracer: Tracer,
    checks: Tally,
}

impl Runner {
    fn new(w: Workload, seed: u64, checks: Tally) -> Runner {
        Runner {
            w,
            seed,
            opts: ParOptions::default(),
            model: DeviceModel::reference_cpu(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: ipt_pool::num_threads(),
            seq64: Scratch::new(),
            seq32: Scratch::new(),
            layers: Layers::default(),
            tracer: Tracer::new(false),
            checks,
        }
    }

    /// Make calls on `shapes` until `deadline`. Untraced, every call
    /// lands in the returned tally. Traced, each shape runs twice, once
    /// traced and once not, alternating which goes first so that order
    /// effects cancel: the first tally holds the traced calls, the
    /// second their untraced twins, the base of the tracing overhead.
    fn run(
        &mut self,
        state: &mut State,
        mut shapes: ShapeStream,
        deadline: Instant,
        traced: bool,
    ) -> (Tally, Tally) {
        let (mut measured, mut twins) = (Tally::default(), Tally::default());
        let mut id = 0u64;
        while Instant::now() < deadline {
            let Some(shape) = shapes.next() else { break };
            id += 1;
            if !traced {
                self.call(state, shape, id, false, &mut measured);
                continue;
            }
            let order = if id.is_multiple_of(2) {
                [false, true]
            } else {
                [true, false]
            };
            for t in order {
                self.tracer.set_enabled(t);
                let tally = if t { &mut measured } else { &mut twins };
                self.call(state, shape, id, t, tally);
            }
        }
        self.tracer.set_enabled(false);
        (measured, twins)
    }

    /// One call on `(m, n)`: make its input, time the copy reference and
    /// the call, then check the output.
    fn call(
        &mut self,
        state: &mut State,
        (m, n): (usize, usize),
        id: u64,
        traced: bool,
        tally: &mut Tally,
    ) {
        let tr = &mut self.tracer;
        let root = tr.begin("call", None, id);
        let len = m * n;
        let eq37 = (2 * len * self.w.elem_bytes()) as u64;
        match state {
            State::Matrix { buf, dst } => {
                let a = &mut buf[..len];
                timed(tr, "input.fill", root, id, || fill_pattern(a));
                let (_, copy_ns) = timed(tr, "ref.memcpy", root, id, || {
                    par_copy(a, &mut dst[..len], self.threads);
                    black_box(&dst[..len]);
                });
                tally.record_copy(eq37, copy_ns);
                let window = traced.then(layers::open);
                let s = tr.begin(TRANSPOSE_SPAN, Some(root), id);
                let t = Instant::now();
                let r = transpose_parallel(black_box(&mut *a), m, n, Layout::RowMajor, &self.opts);
                let call_ns = nanos(t);
                tr.end(s);
                if let Some(win) = window {
                    let d = win.close();
                    let split = d.phase_split();
                    let pred = if m > n {
                        predict_c2r(&self.model, m, n, 8)
                    } else {
                        predict_r2c(&self.model, n, m, 8)
                    };
                    self.layers
                        .divergence
                        .push(PhaseBreakdown::new(&pred, &split).divergence);
                    tr.attribute(s, split);
                    self.layers.record_call(d, call_ns);
                }
                let c = tr.begin("check", Some(root), id);
                tally.record(eq37, call_ns, r, || {
                    is_transposed_pattern(a, m, n, Layout::RowMajor)
                });
                tr.end(c);
                if traced {
                    fill_pattern(a);
                    let seq = &mut self.seq64;
                    let (_, ns) = timed(tr, "ipt_core::transpose", root, id, || {
                        ipt_core::transpose(a, m, n, Layout::RowMajor, seq)
                    });
                    self.layers.seq.0 += eq37;
                    self.layers.seq.1 += ns;
                    self.checks.record(0, 0, Ok::<(), ()>(()), || {
                        is_transposed_pattern(a, m, n, Layout::RowMajor)
                    });
                    fill_pattern(a);
                    let (_, ns) = timed(tr, "ipt_baselines::gustavson", root, id, || {
                        ipt_baselines::gustavson::transpose_gustavson(a, m, n)
                    });
                    self.layers.gustavson.0 += eq37;
                    self.layers.gustavson.1 += ns;
                    self.checks.record(0, 0, Ok::<(), ()>(()), || {
                        is_transposed_pattern(a, m, n, Layout::RowMajor)
                    });
                }
            }
            State::Aos { buf, dst } => {
                let a = &mut buf[..len];
                timed(tr, "input.fill", root, id, || fill_pattern(a));
                let (_, copy_ns) = timed(tr, "ref.memcpy", root, id, || {
                    par_copy(a, &mut dst[..len], self.threads);
                    black_box(&dst[..len]);
                });
                tally.record_copy(eq37, copy_ns);
                let window = traced.then(layers::open);
                let (r, ns) = timed(tr, "ipt_aos_soa::aos_to_soa", root, id, || {
                    ipt_aos_soa::aos_to_soa(black_box(&mut *a), m, n)
                });
                if let Some(win) = window {
                    self.layers.record_call(win.close(), ns);
                    self.layers.to_soa_ms.push(ms(ns));
                }
                let ok = tally.record(eq37, ns, r, || {
                    is_transposed_pattern(a, m, n, Layout::RowMajor)
                });
                if ok {
                    let window = traced.then(layers::open);
                    let (r, ns) = timed(tr, "ipt_aos_soa::soa_to_aos", root, id, || {
                        ipt_aos_soa::soa_to_aos(black_box(&mut *a), m, n)
                    });
                    if let Some(win) = window {
                        self.layers.record_call(win.close(), ns);
                        self.layers.to_aos_ms.push(ms(ns));
                    }
                    tally.record(eq37, ns, r, || is_pattern(a));
                }
                if traced {
                    fill_pattern(a);
                    let seq = &mut self.seq32;
                    let (_, ns) = timed(tr, "ipt_core::transpose", root, id, || {
                        ipt_core::transpose(a, m, n, Layout::RowMajor, seq)
                    });
                    self.layers.seq.0 += eq37;
                    self.layers.seq.1 += ns;
                    self.checks.record(0, 0, Ok::<(), ()>(()), || {
                        is_transposed_pattern(a, m, n, Layout::RowMajor)
                    });
                }
            }
            State::Cli(files) => {
                let gen_seed = self.seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let (made, _) = timed(tr, "ipt-cli gen", root, id, || files.gen(m, n, gen_seed));
                if made.is_err() {
                    tally.record(eq37, 0, Err(()), || false);
                    tr.end(root);
                    return;
                }
                fresh(&files.copy);
                let (copied, copy_ns) = timed(tr, "ref.fs_copy", root, id, || {
                    std::fs::copy(&files.input, &files.copy)
                });
                match copied {
                    Ok(_) => tally.record_copy(eq37, copy_ns),
                    Err(_) => {
                        self.checks.record(0, 0, Err(()), || false);
                    }
                }
                let (run, _) = timed(tr, "ipt-cli transpose", root, id, || files.transpose(m, n));
                let (result, wall_ns) = match &run {
                    Ok(r) => (
                        r.status.success().then_some(()).ok_or(()),
                        r.wall.as_nanos() as u64,
                    ),
                    Err(_) => (Err(()), 0),
                };
                if let Ok(r) = &run {
                    files.max_rss_kib = files.max_rss_kib.max(r.max_rss_kib);
                }
                let c = tr.begin("ipt-cli verify", Some(root), id);
                let ok = tally.record(eq37, wall_ns, result, || files.verify(m, n, gen_seed));
                tr.end(c);
                if traced && ok {
                    let run = run.as_ref().expect("a successful call ran");
                    files.split_layers(m, n, run, root, id, tr, &mut self.layers, &mut self.checks);
                }
            }
        }
        if traced {
            self.layers.probe_dispatch(self.nproc, &mut self.checks);
        }
        self.tracer.end(root);
    }
}

// ------------------------------------------------------------- CLI files

/// Work files of the CLI workload, named per process so set-up probes
/// and the measured run never share one.
struct CliFiles {
    cli: PathBuf,
    input: PathBuf,
    output: PathBuf,
    copy: PathBuf,
    scratch: PathBuf,
    /// Largest peak resident set of any `ipt-cli transpose` child.
    max_rss_kib: u64,
}

impl CliFiles {
    fn new(cli: &Path) -> CliFiles {
        let pid = std::process::id();
        let file = |what: &str| PathBuf::from(format!("cli-{pid}-{what}.bin"));
        CliFiles {
            cli: cli.to_path_buf(),
            input: file("in"),
            output: file("out"),
            copy: file("copy"),
            scratch: file("scratch"),
            max_rss_kib: 0,
        }
    }

    fn command(&self, sub: &str, file: &Path, m: usize, n: usize) -> Command {
        let mut cmd = Command::new(&self.cli);
        cmd.arg(sub)
            .arg(file)
            .args(["--rows", &m.to_string(), "--cols", &n.to_string()])
            .args(["--elem-size", "8"])
            .stdin(Stdio::null());
        cmd
    }

    /// `ipt-cli gen` the call's input.
    fn gen(&self, m: usize, n: usize, seed: u64) -> Result<(), String> {
        fresh(&self.input);
        let mut cmd = self.command("gen", &self.input, m, n);
        cmd.args(["--seed", &seed.to_string()]);
        match run_child(&mut cmd) {
            Ok(r) if r.status.success() => Ok(()),
            Ok(r) => Err(format!("ipt-cli gen exited with {}", r.status)),
            Err(e) => Err(format!("running ipt-cli gen: {e}")),
        }
    }

    /// The timed call: `ipt-cli transpose IN --out OUT`.
    fn transpose(&self, m: usize, n: usize) -> Result<ChildRun, String> {
        fresh(&self.output);
        let mut cmd = self.command("transpose", &self.input, m, n);
        cmd.arg("--out").arg(&self.output);
        run_child(&mut cmd).map_err(|e| format!("running ipt-cli transpose: {e}"))
    }

    /// `ipt-cli verify OUT` against the pattern `gen` wrote.
    fn verify(&self, m: usize, n: usize, seed: u64) -> bool {
        let mut cmd = self.command("verify", &self.output, m, n);
        cmd.args(["--seed", &seed.to_string()]);
        run_child(&mut cmd).is_ok_and(|r| r.status.success())
    }

    /// Traced split of one CLI call: the transpose time `ipt-cli`
    /// reports, plus read and write of the same files timed in-process
    /// (the CLI does not time its I/O), the rest being process cost; and
    /// `try_transpose_erased` in-process on the same bytes.
    #[allow(clippy::too_many_arguments)]
    fn split_layers(
        &self,
        m: usize,
        n: usize,
        run: &ChildRun,
        root: usize,
        id: u64,
        tr: &mut Tracer,
        layers: &mut Layers,
        checks: &mut Tally,
    ) {
        let (data, read_ns) = timed(tr, "fs::read", root, id, || std::fs::read(&self.input));
        let Ok(mut data) = data else {
            checks.record(0, 0, Err(()), || false);
            return;
        };
        let (r, erased_ns) = timed(tr, "ipt_core::try_transpose_erased", root, id, || {
            try_transpose_erased(&mut data, m, n, 8, Layout::RowMajor)
        });
        layers.erased.0 += 2 * data.len() as u64;
        layers.erased.1 += erased_ns;
        checks.record(0, 0, r, || {
            std::fs::read(&self.output).is_ok_and(|out| out == data)
        });
        fresh(&self.scratch);
        let (wrote, write_ns) = timed(tr, "fs::write", root, id, || {
            std::fs::write(&self.scratch, &data)
        });
        checks.record(0, 0, wrote, || true);
        let Some(transpose_ns) = reported_transpose_nanos(&run.stdout) else {
            checks.record(0, 0, Err(()), || false);
            return;
        };
        let wall = run.wall.as_nanos() as f64;
        layers.cli_read_ms.push(ms(read_ns));
        layers.cli_transpose_ms.push(ms(transpose_ns));
        layers.cli_write_ms.push(ms(write_ns));
        layers
            .cli_process_ms
            .push((wall - (read_ns + transpose_ns + write_ns) as f64) / 1e6);
    }
}

impl Drop for CliFiles {
    fn drop(&mut self) {
        for f in [&self.input, &self.output, &self.copy, &self.scratch] {
            let _ = std::fs::remove_file(f);
        }
    }
}

/// Remove `path` if it exists, so the next write creates a new file.
/// Rewriting an existing file in place makes ext4 (`auto_da_alloc`)
/// start writeback on close; writing new files and deleting them
/// within seconds keeps the workload's files in the page cache and its
/// timings off the disk.
fn fresh(path: &Path) {
    let _ = std::fs::remove_file(path);
}

/// The transpose time `ipt-cli transpose` prints: `... in 139.71ms (...`.
fn reported_transpose_nanos(stdout: &str) -> Option<u64> {
    let rest = stdout.split(" in ").nth(1)?;
    let value = rest.split_whitespace().next()?;
    let split = value.find(|c: char| !(c.is_ascii_digit() || c == '.'))?;
    let (num, unit) = value.split_at(split);
    let scale = match unit {
        "s" => 1e9,
        "ms" => 1e6,
        "µs" | "us" => 1e3,
        "ns" => 1.0,
        _ => return None,
    };
    Some((num.parse::<f64>().ok()? * scale) as u64)
}

// ------------------------------------------------------------ the report

/// Run the workload and build the report; returns the result line.
fn run(args: &Args, env: &EnvStamp) -> Result<String, String> {
    let w = args.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", env.line());
    println!(
        "load closed loop, 1 caller thread, pool at default width ({} workers), default ParOptions",
        env.pool_threads
    );
    let mut checks = Tally::default();
    let setup_s = if args.trace {
        None
    } else {
        Some(measure_setup(args, &mut checks)?)
    };
    let mut state = setup(w, args.cli.as_deref(), &mut checks)?;
    let mut runner = Runner::new(w, args.seed, checks);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (tally, twins) = runner.run(&mut state, w.shapes(args.seed), deadline, args.trace);

    let measured = if args.trace {
        let trace_path = write_trace(args, env, runner.tracer.spans())?;
        println!("trace {trace_path} ({} spans)", runner.tracer.spans().len());
        let measured = layer_metrics(&tally, &twins, &runner);
        if let (Some(us), Some(tasks)) = (
            median(&runner.layers.dispatch_us),
            measured.iter().find(|(n, _)| n == "pool.tasks_per_call"),
        ) {
            let est_ms = us * tasks.1 / 1e3;
            println!(
                "dispatch estimate pool.dispatch_us x pool.tasks_per_call = {est_ms:.4} ms \
                 against traced call p50 {:.4} ms ({:.3} of the call)",
                tally.p50_ms(),
                est_ms / tally.p50_ms()
            );
        }
        runner.checks.attempted += twins.attempted;
        runner.checks.failed += twins.failed;
        measured
    } else {
        let rss_kib = match &state {
            State::Cli(files) => files.max_rss_kib,
            _ => peak_rss_kib().ok_or("no VmHWM in /proc/self/status")?,
        };
        let (tail_p, tail_ms) = tally.tail_ms();
        println!(
            "tail percentile p{tail_p:.3} over {} samples (highest with >= 10 samples beyond it, capped at p{})",
            tally.samples.len(),
            perfbench::stats::TAIL_MAX
        );
        let ms = tally.sorted_ms();
        let at = |p: f64| perfbench::stats::percentile(&ms, p).unwrap_or(0.0);
        println!(
            "percentiles call_ms p50={:.4} p90={:.4} p99={:.4}",
            at(50.0),
            at(90.0),
            at(99.0)
        );
        println!(
            "reference copy {:.4} GB/s over the same bytes ({})",
            tally.copy_gbps(),
            if w == Workload::CliFile {
                "std::fs::copy of the input file"
            } else {
                "memcpy of the call buffer, one part per pool worker"
            }
        );
        // Raw timings move with the shared host's speed, tails with its
        // scheduling, and a healthy build reads fail_frac 0; the result
        // line gates the copy-anchored median and carries failed and
        // attempted.
        for (name, value, unit) in [
            ("gbps", tally.gbps(), "GB/s"),
            ("call_ms_p50", tally.p50_ms(), "ms"),
            ("call_ms_tail", tail_ms, "ms"),
            ("fail_frac", tally.fail_frac(), "ratio"),
        ] {
            println!("metric {name} = {value} {unit}  (log only)");
        }
        vec![
            ("frac_of_copy".to_string(), tally.frac_of_copy()),
            (
                "setup_s".to_string(),
                setup_s.expect("measured for trace 0"),
            ),
            ("peak_rss_mb".to_string(), rss_kib as f64 / 1024.0),
        ]
    };

    let checks = &runner.checks;
    let attempted = tally.attempted + checks.attempted;
    let failed = tally.failed + checks.failed;
    println!(
        "calls attempted={} failed={} fail_frac={} samples={} (other checked operations: {} attempted, {} failed)",
        tally.attempted,
        tally.failed,
        tally.fail_frac(),
        tally.samples.len(),
        checks.attempted,
        checks.failed
    );
    let spec: Vec<(String, &'static str)> = if args.trace {
        metrics::per_layer()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let (report, absent) = metrics::assemble(&spec, &measured);
    if !args.trace && !absent.is_empty() {
        return Err(format!("end-to-end metrics not measured: {absent:?}"));
    }
    for Metric { name, value, unit } in &report {
        let note = if absent.contains(name) {
            "  (n/a: layer not on this workload's path; reads 0)"
        } else {
            ""
        };
        println!("metric {name} = {value} {unit}{note}");
    }
    metrics::result_line(failed == 0, attempted, failed, &report)
}

/// Per-layer metrics of a traced run: `traced` holds the traced calls,
/// `twins` the same shapes run untraced, the base of
/// `trace.overhead_frac`.
fn layer_metrics(traced: &Tally, twins: &Tally, runner: &Runner) -> Vec<(String, f64)> {
    let l = &runner.layers;
    let d = &l.delta;
    let copy = traced.copy_gbps();
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));
    put("ref.copy_gbps", copy);
    if let Some(us) = median(&l.dispatch_us) {
        put("pool.dispatch_us", us);
    }
    if twins.gbps() > 0.0 {
        put("trace.overhead_frac", 1.0 - traced.gbps() / twins.gbps());
    }
    if l.calls > 0 {
        let per_call = |x: u64| x as f64 / l.calls as f64;
        put("pool.tasks_per_call", per_call(d.tasks));
        put("pool.chunks_per_call", per_call(d.chunks));
        put("pool.scratch_reuse_frac", d.scratch_reuse_frac());
        put("pool.worker_chunk_spread", d.worker_chunk_spread());
        put("pool.panics_contained", d.panics_contained as f64);
        put("pool.retries", d.retries as f64);
        put("parallel.sched.imbalance", d.sched_imbalance());
        for k in metrics::KERNELS {
            put(
                &format!("parallel.kernel.{k}.hits"),
                d.kernel_hits(k) as f64,
            );
        }
    }
    for p in metrics::PHASES {
        let Some(ph) = d.phase(p) else { continue };
        put(
            &format!("parallel.{p}.share"),
            ph.nanos as f64 / l.call_nanos as f64,
        );
        if ph.moving_nanos > 0 {
            let g = gbps(ph.bytes, ph.moving_nanos);
            put(&format!("parallel.{p}.gbps"), g);
            if copy > 0.0 {
                put(&format!("parallel.{p}.frac_of_copy"), g / copy);
            }
        }
    }
    if !d.phases.is_empty() {
        let spans = runner.tracer.spans();
        let (own, total) = trace::self_and_total(spans, &trace::self_times(spans), TRANSPOSE_SPAN);
        if total > 0 {
            put("parallel.unattributed_share", own as f64 / total as f64);
        }
    }
    if l.seq.1 > 0 {
        let seq = gbps(l.seq.0, l.seq.1);
        put("core.seq_gbps", seq);
        put("parallel.scaling_x", traced.gbps() / seq);
    }
    if l.gustavson.1 > 0 {
        put("ref.gustavson_gbps", gbps(l.gustavson.0, l.gustavson.1));
    }
    if l.erased.1 > 0 {
        put("core.erased_gbps", gbps(l.erased.0, l.erased.1));
    }
    for (name, xs) in [
        ("model.divergence", &l.divergence),
        ("aos.to_soa_ms", &l.to_soa_ms),
        ("aos.to_aos_ms", &l.to_aos_ms),
        ("cli.read_ms", &l.cli_read_ms),
        ("cli.transpose_ms", &l.cli_transpose_ms),
        ("cli.write_ms", &l.cli_write_ms),
        ("cli.process_ms", &l.cli_process_ms),
    ] {
        if let Some(v) = median(xs) {
            put(name, v);
        }
    }
    out
}

/// Write the traced pass as Chrome trace-event JSON into the working
/// directory; returns the file name.
fn write_trace(args: &Args, env: &EnvStamp, spans: &[trace::Span]) -> Result<String, String> {
    use ipt_core::json::Json;
    let path = format!("trace-{}-{}.json", args.workload.name(), args.seed);
    let doc = trace::chrome_trace(
        spans,
        vec![
            ("workload", Json::Str(args.workload.name().to_string())),
            ("seed", Json::Num(args.seed as f64)),
            ("env", Json::Str(env.line())),
        ],
    );
    let text = doc.render_checked()?;
    std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_transpose_time_parses_every_duration_unit() {
        let line = |t: &str| format!("transposed 3 x 2 (8 bytes/elem) in {t} (0.240 GB/s) -> o");
        assert_eq!(
            reported_transpose_nanos(&line("139.71ms")),
            Some(139_710_000)
        );
        assert_eq!(
            reported_transpose_nanos(&line("1.50s")),
            Some(1_500_000_000)
        );
        assert_eq!(reported_transpose_nanos(&line("951.20µs")), Some(951_200));
        assert_eq!(reported_transpose_nanos(&line("12.00ns")), Some(12));
        assert_eq!(reported_transpose_nanos("garbage"), None);
    }

    #[test]
    fn args_need_every_driver_flag() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload small_stream --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::SmallStream, 7, 3, true)
        );
        assert!(parse_args(&argv("--workload small_stream --seed 7 --seconds 3")).is_err());
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 3 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload cli_file --seed 7 --seconds 3 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload aos_soa --seed 7 --seconds 0 --trace 0")).is_err());
    }
}
