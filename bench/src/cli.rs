//! Command line: the driver's one-run interface, the per-engine child the
//! parent re-executes itself as, and the self-check.

use crate::chain::Engine;
use crate::metrics;
use crate::report::Report;
use crate::workload::{Kind, NOMINAL_SECONDS};
use crate::{run, selfcheck, sys, trace};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

const USAGE: &str = "\
pb-chain-bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
pb-chain-bench --selfcheck N [--seed N] [--seconds S] [--workload <name>]

  --workload   hit_flood | miss_churn | browse_dsl | large_stream
  --seed       seeds every generated input (default 1)
  --seconds    nominal measuring time of one run; scales the fixed request
               lists (default 30, the value they were calibrated for)
  --trace      0: end-to-end metrics (default); 1: per-layer metrics from a
               traced serial run, span files under bench/out/
  --quick      a smoke run: --seconds 2
  --selfcheck  run every workload in two interleaved sets of N runs and
               compare the sets' medians against the bounds
";

/// `--quick`: a tenth of the nominal lists.
pub const QUICK_SECONDS: f64 = 2.0;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<Kind>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub child: Option<Engine>,
    pub selfcheck: Option<usize>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: NOMINAL_SECONDS,
        trace: false,
        child: None,
        selfcheck: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(Kind::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds needs a number in (0, 60]")?;
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => args.seconds = QUICK_SECONDS,
            "--child" => {
                let v = value()?;
                args.child = Some(Engine::parse(v).ok_or_else(|| format!("unknown engine {v}"))?);
            }
            "--selfcheck" => {
                args.selfcheck = Some(
                    value()?
                        .parse()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or("--selfcheck needs a count of at least 1")?,
                );
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

pub fn main() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("pb-chain-bench: {msg}\n");
            }
            eprint!("{USAGE}");
            return 2;
        }
    };
    // Before any thread exists: one CPU for the whole process tree, and
    // sleeps that wake when asked.
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = match sys::pin_to_one_cpu() {
        Ok(cpu) => cpu.to_string(),
        Err(e) => {
            // Still a benchmark, only a noisier one; the header says so.
            eprintln!("pb-chain-bench: WARNING cannot pin to one CPU: {e}");
            "none (unpinned!)".to_owned()
        }
    };
    sys::tighten_timer_slack();

    if let Some(engine) = args.child {
        return child(&args, engine);
    }
    if let Some(n) = args.selfcheck {
        return selfcheck::run(&args, n);
    }
    let Some(kind) = args.workload else {
        eprintln!("pb-chain-bench: --workload is required\n");
        eprint!("{USAGE}");
        return 2;
    };
    match run_once(kind, args.seed, args.seconds, args.trace) {
        Ok(report) => {
            println!(
                "pb-chain-bench {} seed {} seconds {} trace {}",
                kind.name(),
                args.seed,
                args.seconds,
                args.trace as u8
            );
            println!(
                "pinned to CPU {cpu} of {cpus} available; one CPU by design: multi-core \
                 scaling is out of scope, all traffic is loopback; claim: none"
            );
            print!("{}", report.table());
            for n in &report.notes {
                println!("{n}");
            }
            let names: Vec<String> = if args.trace {
                metrics::per_layer_all().into_iter().map(|m| m.0).collect()
            } else {
                metrics::END_TO_END
                    .iter()
                    .map(|m| m.name.to_owned())
                    .collect()
            };
            match report.to_json(&names) {
                Ok(json) => {
                    println!("{json}");
                    (report.failed > 0) as i32
                }
                Err(e) => {
                    eprintln!("pb-chain-bench: {e}");
                    1
                }
            }
        }
        Err(e) => {
            eprintln!("pb-chain-bench: {e}");
            1
        }
    }
}

/// The child: one engine, one workload, figures on standard output in the
/// line protocol of [`Report::to_lines`], steps taken in turn with the
/// sibling engine's child (see [`run::Turns`]).
fn child(args: &Args, engine: Engine) -> i32 {
    let Some(kind) = args.workload else {
        eprintln!("pb-chain-bench: --child needs --workload");
        return 2;
    };
    let mut turns = run::Turns::default();
    let result = if args.trace {
        trace::traced(kind, engine, args.seed, args.seconds, &mut turns)
    } else {
        run::end_to_end(kind, engine, args.seed, args.seconds, &mut turns)
    };
    match result {
        Ok(report) => {
            print!("{}", report.to_lines());
            0
        }
        Err(e) => {
            eprintln!("pb-chain-bench child ({}): {e}", engine.name());
            1
        }
    }
}

/// One engine's child process, as the parent sees it.
struct Child {
    engine: Engine,
    process: std::process::Child,
    stdin: std::process::ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
    /// Everything it printed that was not turn-taking.
    lines: String,
    finished: bool,
    /// Its pending step may overlap the sibling's.
    shared: bool,
}

impl Child {
    fn go(&mut self) -> Result<(), String> {
        self.stdin
            .write_all(b"go\n")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("signalling the {} child: {e}", self.engine.name()))
    }

    /// Read until the child asks for its next turn (`true`) or ends.
    fn until_ready(&mut self) -> Result<bool, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading the {} child: {e}", self.engine.name()))?;
            if n == 0 {
                self.finished = true;
                return Ok(false);
            }
            let word = line.trim_end();
            if word == run::READY || word == run::READY_SHARED {
                self.shared = word == run::READY_SHARED;
                return Ok(true);
            }
            self.lines.push_str(&line);
        }
    }
}

/// Run one workload on both engines, each in a fresh child process so CPU
/// time and peak RSS are per engine, and merge what they measured. Both
/// children are alive at once, but only one runs at a time: the parent
/// hands out turns, one step of one child after one step of the other.
pub fn run_once(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut children = Vec::new();
    for engine in Engine::BOTH {
        let mut process = Command::new(&exe)
            .args(["--child", engine.name(), "--workload", kind.name()])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning the {} child: {e}", engine.name()))?;
        children.push(Child {
            engine,
            stdin: process.stdin.take().expect("piped stdin"),
            stdout: BufReader::new(process.stdout.take().expect("piped stdout")),
            process,
            lines: String::new(),
            finished: false,
            shared: false,
        });
    }
    let outcome = take_turns(&mut children);
    // Whatever happened, no child outlives the run.
    for c in &mut children {
        if outcome.is_err() {
            let _ = c.process.kill();
        }
        let status = c.process.wait();
        if outcome.is_ok() && !status.is_ok_and(|s| s.success()) {
            return Err(format!("the {} child failed", c.engine.name()));
        }
    }
    outcome?;
    let reports: Vec<Report> = children
        .iter()
        .map(|c| {
            Report::from_lines(&c.lines).map_err(|e| format!("{} child: {e}", c.engine.name()))
        })
        .collect::<Result<_, _>>()?;
    Ok(if traced {
        trace::merge(&reports[0], &reports[1])
    } else {
        merge_end_to_end(&reports[0], &reports[1])
    })
}

fn take_turns(children: &mut [Child]) -> Result<(), String> {
    for c in children.iter_mut() {
        c.until_ready()?;
    }
    while children.iter().any(|c| !c.finished) {
        if children.iter().all(|c| c.finished || c.shared) {
            // Steps that sleep most of the time run side by side.
            for c in children.iter_mut().filter(|c| !c.finished) {
                c.go()?;
            }
            for c in children.iter_mut().filter(|c| !c.finished) {
                c.until_ready()?;
            }
        } else {
            // Everything else has the CPU to itself, engines alternating.
            for c in children.iter_mut().filter(|c| !c.finished) {
                c.go()?;
                c.until_ready()?;
            }
        }
    }
    Ok(())
}

/// `setup_s` is both engines' set-ups summed, `peak_rss_mib` the larger
/// child; everything else already carries its engine's suffix.
fn merge_end_to_end(threaded: &Report, reactor: &Report) -> Report {
    let mut out = Report::default();
    let both = |name: &str| -> Vec<f64> {
        [threaded, reactor]
            .into_iter()
            .zip(Engine::BOTH)
            .filter_map(|(r, e)| r.get(&format!("{name}.{}", e.name())))
            .collect()
    };
    out.put("setup_s", both("setup_s").iter().sum(), "s");
    out.put(
        "peak_rss_mib",
        both("peak_rss_mib").into_iter().fold(0.0, f64::max),
        "MiB",
    );
    for child in [threaded, reactor] {
        for m in &child.metrics {
            out.put(m.name.clone(), m.value, &m.unit);
        }
        out.attempted += child.attempted;
        out.failed += child.failed;
        out.notes.extend(child.notes.iter().cloned());
    }
    out
}
