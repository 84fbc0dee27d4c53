//! The benchmark's self-test at tiny scale: deterministic inputs, every
//! metric of `BENCHMARK.json` printed with its unit, exact counters that
//! repeat, and a mirror that stays in step with the server.

use std::path::PathBuf;

use espresso_perfbench::gen::{Stream, Workload};
use espresso_perfbench::{run, Plan, Report};

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("key present");
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

fn assert_prints(report: &Report, section: &str) {
    let printed: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(printed, declared(section), "{section} metrics and units");
}

#[test]
fn streams_are_seeded() {
    for w in Workload::ALL {
        let plan = Plan {
            ops: 500,
            ..Plan::full(w, 1)
        };
        let a = Stream::generate(w, 11, &plan);
        let b = Stream::generate(w, 11, &plan);
        let c = Stream::generate(w, 12, &plan);
        assert_eq!(
            a.encode(),
            b.encode(),
            "{}: same seed, same bytes",
            w.name()
        );
        assert_ne!(
            a.encode(),
            c.encode(),
            "{}: other seed, other bytes",
            w.name()
        );
        assert_eq!(a.ops.len(), 500);
    }
}

#[test]
fn end_to_end_metrics_print_and_counts_repeat() {
    for w in Workload::ALL {
        let dir = scratch(&format!("e2e-{}", w.name()));
        let first = run(w, 5, Plan::tiny(w), false, &dir).expect("tiny run");
        let second = run(w, 5, Plan::tiny(w), false, &dir).expect("tiny run");
        assert!(first.correct && second.correct, "{}: answers", w.name());
        assert_prints(&first, "end_to_end");
        for exact in [
            "nvm_bytes_per_user_byte",
            "nvm_flushes_per_op",
            "nvm_reads_per_op",
            "space_amp",
        ] {
            assert_eq!(
                value(&first, exact),
                value(&second, exact),
                "{}: {exact} repeats",
                w.name()
            );
        }
        for m in &first.metrics {
            assert!(m.value > 0.0, "{}: {} is {}", w.name(), m.name, m.value);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn per_layer_metrics_print_and_mirror_is_in_step() {
    for w in Workload::ALL {
        let dir = scratch(&format!("layer-{}", w.name()));
        let report = run(w, 9, Plan::tiny(w), true, &dir).expect("tiny traced run");
        assert!(report.correct, "{}: answers", w.name());
        assert_prints(&report, "per_layer");
        assert_eq!(
            value(&report, "trace.in_step"),
            1.0,
            "{}: in step",
            w.name()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
