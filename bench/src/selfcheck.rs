//! `--selfcheck N`: does the benchmark agree with itself? Every workload
//! runs in two interleaved sets of N runs of the same code (A1 B1 A2 B2 …,
//! run i of either set on seed `--seed + i`), and for every (workload,
//! end-to-end metric) pair the two sets' medians must not differ, in the
//! worsening direction either way, by more than the metric's bound. The
//! bounds in `BENCHMARK.json` come from this table.

use crate::cli::{run_once, Args};
use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workload::Kind;

pub fn run(args: &Args, n: usize) -> i32 {
    let kinds: Vec<Kind> = match args.workload {
        Some(k) => vec![k],
        None => Kind::ALL.to_vec(),
    };
    println!(
        "pb-chain-bench selfcheck: {n} runs per set, seeds {}..{}, seconds {}",
        args.seed,
        args.seed + n as u64 - 1,
        args.seconds
    );
    println!(
        "{:13} {:24} {:>12} {:>12} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "|A-B| %", "bound %", "IQR %"
    );
    let mut excess = 0;
    for kind in kinds {
        // sets[set][metric] = one value per run
        let mut sets = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for i in 0..n {
            for set in &mut sets {
                let report = match run_once(kind, args.seed + i as u64, args.seconds, false) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("pb-chain-bench selfcheck: {} run failed: {e}", kind.name());
                        return 1;
                    }
                };
                if report.failed > 0 {
                    for note in &report.notes {
                        eprintln!("{note}");
                    }
                    eprintln!(
                        "pb-chain-bench selfcheck: {} seed {}: {} failed operations",
                        kind.name(),
                        args.seed + i as u64,
                        report.failed
                    );
                    return 1;
                }
                for (m, values) in END_TO_END.iter().zip(set.iter_mut()) {
                    values.push(
                        report
                            .get(m.name)
                            .expect("every end-to-end metric is measured"),
                    );
                }
            }
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (median(&sets[0][i]), median(&sets[1][i]));
            // Whichever set is called the parent, the other must not be
            // worse than it by more than the bound.
            let (better, worse) = match m.better {
                Better::Lower => (a.min(b), a.max(b)),
                Better::Higher => (a.max(b), a.min(b)),
            };
            let diff = (worse - better).abs() / better.abs().max(f64::MIN_POSITIVE);
            let all: Vec<f64> = sets[0][i].iter().chain(&sets[1][i]).copied().collect();
            let (q1, q2, q3) = quartiles(&all);
            let spread = (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE);
            let ok = diff <= m.bound;
            if !ok {
                excess += 1;
            }
            println!(
                "{:13} {:24} {:>12.4} {:>12.4} {:>8.2} {:>7.1} {:>8.2}  {}",
                kind.name(),
                m.name,
                a,
                b,
                diff * 100.0,
                m.bound * 100.0,
                spread * 100.0,
                if ok { "ok" } else { "EXCESS" }
            );
        }
    }
    if excess > 0 {
        println!("selfcheck: {excess} (workload, metric) pairs disagree beyond their bound");
        1
    } else {
        println!("selfcheck: every (workload, metric) pair agrees within its bound");
        0
    }
}
