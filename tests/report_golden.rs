//! Golden reports: three shipped sweeps' CSV and JSON, rebuilt through
//! `horse::lab`, must equal the files under `tests/golden/` byte for byte.
//!
//! `ctrl_latency` is reactive (flow-ins, controller messages), `chaos`
//! exercises the fault counters and recovery times, and
//! `hybrid_accuracy` the packet plane and its burst histogram. A change
//! that moves a report by design re-records these files with
//! `horse-lab run examples/sweeps/<name>.toml --out tests/golden --threads 1`
//! and says so.

use horse::lab::{run_sweep, SweepSpec};
use std::path::Path;

fn check(name: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec = SweepSpec::load(&root.join(format!("examples/sweeps/{name}.toml"))).unwrap();
    let report = run_sweep(&spec, 1).unwrap();
    for (ext, got) in [
        ("csv", report.metrics_csv()),
        ("json", report.metrics_json()),
    ] {
        let path = root.join(format!("tests/golden/{name}.{ext}"));
        let want = std::fs::read_to_string(&path).unwrap();
        if got != want {
            let line = (got.lines().zip(want.lines()))
                .position(|(g, w)| g != w)
                .map_or(got.lines().count().min(want.lines().count()), |i| i);
            panic!(
                "{name}.{ext} differs from {} from line {}:\n  got:  {:?}\n  want: {:?}",
                path.display(),
                line + 1,
                got.lines().nth(line),
                want.lines().nth(line),
            );
        }
    }
}

#[test]
fn ctrl_latency_report_is_golden() {
    check("ctrl_latency");
}

#[test]
fn chaos_report_is_golden() {
    check("chaos");
}

#[test]
fn hybrid_accuracy_report_is_golden() {
    check("hybrid_accuracy");
}
