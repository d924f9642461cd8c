//! A `--quick` smoke of all four workloads on both engines, end to end and
//! traced. It asserts counts and structure — operations attempted, none
//! failed, every named metric present, span files well-formed — never a
//! timing.

use pb_chain_bench::chain::Engine;
use pb_chain_bench::metrics;
use pb_chain_bench::workload::{Kind, Plan};
use std::path::{Path, PathBuf};
use std::process::Command;

use pb_chain_bench::cli::QUICK_SECONDS;

const SEED: u64 = 5;

/// Run the benchmark binary in a scratch directory of its own (span files
/// are written relative to the working directory).
fn run(dir: &Path, kind: Kind, trace: bool) -> (String, bool) {
    std::fs::create_dir_all(dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pb-chain-bench"))
        .current_dir(dir)
        .args([
            "--workload",
            kind.name(),
            "--seed",
            &SEED.to_string(),
            "--quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    if !out.status.success() {
        eprintln!("{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    }
    (stdout, out.status.success())
}

fn field(json: &str, key: &str) -> String {
    let at = json
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("{key} in {json}"));
    json[at + key.len() + 4..]
        .split([',', '}'])
        .next()
        .unwrap()
        .trim()
        .to_owned()
}

fn metric(json: &str, name: &str) -> f64 {
    let at = json
        .find(&format!("\"{name}\": {{\"value\": "))
        .unwrap_or_else(|| panic!("metric {name} missing from {json}"));
    json[at + name.len() + 14..]
        .split(',')
        .next()
        .unwrap()
        .parse()
        .unwrap_or_else(|_| panic!("metric {name} is not a number"))
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Operations one engine's end-to-end run attempts, from the plan alone.
fn expected_ops(plan: &Plan) -> u64 {
    let paced = plan
        .warmup
        .iter()
        .chain(plan.paced.iter().flat_map(|p| &p.segments))
        .map(|seg| seg.ops.len());
    let closed = plan
        .closed
        .iter()
        .flat_map(|c| &c.segments)
        .chain(plan.unloaded.iter().flatten())
        .map(Vec::len);
    let browse = plan.browse.iter().flat_map(|b| &b.users).map(Vec::len);
    (plan.populate.len() + paced.chain(closed).chain(browse).sum::<usize>()) as u64
}

#[test]
fn quick_smoke_of_every_workload_on_both_engines() {
    for kind in Kind::ALL {
        let dir = scratch(&format!("smoke-{}", kind.name()));
        let plan = Plan::build(kind, SEED, QUICK_SECONDS);

        // End to end.
        let (stdout, ok) = run(&dir, kind, false);
        assert!(ok, "{}: end-to-end run failed", kind.name());
        let json = stdout.lines().last().unwrap();
        assert_eq!(field(json, "correct"), "true", "{json}");
        assert_eq!(field(json, "failed"), "0");
        assert_eq!(
            field(json, "attempted"),
            (2 * expected_ops(&plan)).to_string(),
            "{}: both engines attempt exactly the plan's operations",
            kind.name()
        );
        for name in metrics::end_to_end_names() {
            let v = metric(json, name);
            assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", kind.name());
        }

        // Traced.
        let (stdout, ok) = run(&dir, kind, true);
        assert!(ok, "{}: traced run failed", kind.name());
        let json = stdout.lines().last().unwrap();
        assert_eq!(field(json, "correct"), "true", "{json}");
        assert_eq!(field(json, "failed"), "0");
        for (name, _, _) in metrics::per_layer_all() {
            let v = metric(json, &name);
            assert!(v.is_finite() && v >= 0.0, "{}: {name} = {v}", kind.name());
        }
        for engine in Engine::BOTH {
            let file = dir.join(format!(
                "bench/out/trace-{}-{}.jsonl",
                kind.name(),
                engine.name()
            ));
            check_spans(&file, &plan, engine);
        }

        // Counts that must hold whatever the timing.
        match kind {
            Kind::HitFlood => {
                for e in Engine::BOTH {
                    assert_eq!(metric(json, &format!("{}.upstream_errors", e.layer())), 0.0);
                    assert_eq!(metric(json, &format!("{}.allocs_per_hit", e.layer())), 0.0);
                }
                assert_eq!(metric(json, "proxyd.stats.fresh_hit_ratio"), 1.0);
                assert_eq!(metric(json, "webcache.hit_ratio"), 1.0);
                assert_eq!(metric(json, "proxyd.netem.exchanges_per_req"), 0.0);
            }
            Kind::MissChurn => {
                assert_eq!(metric(json, "proxyd.stats.fresh_hit_ratio"), 0.0);
                let full = metric(json, "proxyd.stats.full_fetch_ratio");
                let validated = metric(json, "proxyd.stats.validation_ratio");
                assert!(
                    (full + validated - 1.0).abs() < 1e-9,
                    "{full} + {validated}"
                );
                assert!(metric(json, "webcache.evictions_per_kreq") > 0.0);
            }
            Kind::BrowseDsl => {
                assert!(metric(json, "proxyd.netem.exchanges_per_req") > 0.0);
                assert!(metric(json, "proxyd.netem.delay_ms_per_exchange") > 5.0);
                assert_eq!(metric(json, "proxyd.netem.failures"), 0.0);
            }
            Kind::LargeStream => {
                assert!(metric(json, "proxyd.stats.streamed_miss_ratio") > 0.0);
                assert!(metric(json, "webcache.prefix_hit_ratio") > 0.0);
                assert!(metric(json, "httpwire.stream_relay_ns_per_kib") > 0.0);
                // Only the one chunked object of exactly the streaming
                // threshold is ever cached whole by the threaded engine.
                assert!(metric(json, "proxyd.stats.fresh_hit_ratio") < 0.1);
            }
        }
    }
}

/// Every span names its parent and its request; one root and one engine
/// span per client request; upstream spans hang off spans that exist.
fn check_spans(file: &Path, plan: &Plan, engine: Engine) {
    let text = std::fs::read_to_string(file)
        .unwrap_or_else(|e| panic!("span file {}: {e}", file.display()));
    let num = |line: &str, key: &str| -> u64 {
        field(line, key)
            .parse()
            .unwrap_or_else(|_| panic!("{key} in {line}"))
    };
    let mut ids = std::collections::HashSet::new();
    let mut parents = Vec::new();
    let (mut roots, mut engine_spans) = (0usize, 0usize);
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        let (id, parent, req) = (num(line, "id"), num(line, "parent"), num(line, "req"));
        assert!(ids.insert(id), "span id {id} repeats");
        assert!(
            req >= 1 && req <= plan.serial.len() as u64,
            "request id {req}"
        );
        assert!(num(line, "start_ns") <= num(line, "end_ns"));
        let name = field(line, "name");
        if name == "\"loadgen.op\"" {
            assert_eq!(parent, 0, "the generator's span is the root");
            roots += 1;
        } else {
            assert_ne!(parent, 0, "{line}: a tap's span names what caused it");
            parents.push(parent);
            if name == format!("\"{}\"", engine.layer()) {
                engine_spans += 1;
            }
        }
    }
    assert_eq!(roots, plan.serial.len(), "{}", file.display());
    assert_eq!(engine_spans, plan.serial.len(), "{}", file.display());
    for p in parents {
        assert!(ids.contains(&p), "parent {p} is not a recorded span");
    }
}
