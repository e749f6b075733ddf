//! Round-trips of the externally visible formats: topology specs and
//! policy documents survive JSON, and a simulation built from the
//! round-tripped artifacts behaves identically.

use horse::controlplane::PolicySpec;
use horse::prelude::*;
use horse::topology::TopologySpec;

#[test]
fn topology_json_roundtrip_preserves_simulation_behaviour() {
    let original = Scenario::figure1(SimTime::from_secs(3), 5);
    // round-trip the topology through JSON
    let spec = TopologySpec::from_topology(&original.topology);
    let js = serde_json::to_string(&spec).unwrap();
    let rebuilt: TopologySpec = serde_json::from_str(&js).unwrap();
    let topo2 = rebuilt.build().expect("rebuilds");

    let mut s2 = original.clone();
    s2.topology = topo2;
    // member ids survive because node insertion order is preserved
    let run = |s: Scenario| {
        let mut sim = Simulation::new(s, SimConfig::default()).expect("valid");
        let r = sim.run();
        (r.flows_admitted, r.flows_completed, r.events)
    };
    assert_eq!(run(original), run(s2));
}

#[test]
fn policy_document_roundtrip() {
    let spec = PolicySpec::figure1();
    let js = spec.to_json();
    let back = PolicySpec::from_json(&js).unwrap();
    assert_eq!(spec, back);
    // the round-tripped document still validates and compiles
    let s = Scenario::figure1(SimTime::from_secs(1), 1);
    assert!(Simulation::new(Scenario { policy: back, ..s }, SimConfig::default()).is_ok());
}

#[test]
fn fig2_style_document_drives_a_simulation() {
    // the exact configuration style of the paper's Figure 2
    let doc = r#"{
        "policies": [
            { "type": "load_balancing", "mode": "ecmp" },
            { "type": "app_peering", "src": "m1", "dst": "m3", "app": "Http", "path_rank": 1 },
            { "type": "rate_limit", "src": "m2", "dst": "m4", "rate_mbps": 500.0 }
        ]
    }"#;
    let policy = PolicySpec::from_json(doc).unwrap();
    let mut s = Scenario::figure1(SimTime::from_secs(3), 9);
    s.policy = policy;
    let mut sim = Simulation::new(s, SimConfig::default()).expect("valid");
    let r = sim.run();
    assert!(r.flows_admitted > 0);
}

/// Every single-bit mutant of `good` that is still UTF-8, flipping one bit
/// every `stride` bytes and cycling through the bit positions.
fn bit_flips(good: &str, stride: usize) -> impl Iterator<Item = String> + '_ {
    (0..good.len())
        .step_by(stride)
        .enumerate()
        .filter_map(move |(k, at)| {
            let mut bad = good.as_bytes().to_vec();
            bad[at] ^= 1 << (k % 8);
            String::from_utf8(bad).ok()
        })
}

#[test]
fn bit_flipped_specs_and_topologies_never_panic() {
    // Hostile input: every shipped sweep (as TOML, and re-encoded as
    // JSON) and topology file, with one bit flipped every few bytes, must
    // parse and expand (or build) into `Ok` or `Err`, never a panic.
    use horse::lab::{expand, SweepSpec};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let files = |dir: &str, ext: &str| {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
        let mut paths: Vec<_> = std::fs::read_dir(root)
            .expect("examples directory")
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == ext))
            .collect();
        paths.sort();
        paths
    };
    let mut mutants = 0usize;
    let mut panics = Vec::new();
    let mut survive = |name: &str, text: &str, stride: usize, f: &dyn Fn(&str)| {
        for (k, bad) in bit_flips(text, stride).enumerate() {
            mutants += 1;
            if catch_unwind(AssertUnwindSafe(|| f(&bad))).is_err() {
                panics.push(format!("{name} mutant {k}"));
            }
        }
    };
    let sweeps = files("examples/sweeps", "toml");
    assert!(sweeps.len() >= 9, "sweeps found: {sweeps:?}");
    for path in &sweeps {
        let name = path.display().to_string();
        let toml = std::fs::read_to_string(path).expect("sweep readable");
        survive(&name, &toml, 3, &|t: &str| {
            if let Ok(spec) = SweepSpec::from_toml(t) {
                let _ = expand(&spec);
            }
        });
        // a shipped spec's relative paths resolve against its own
        // directory, so it is read as a file; its text mutants above
        // resolve them against the working directory (a WAN spec's
        // mutants stop at the graph read), the JSON below carries them
        // resolved
        let spec = SweepSpec::load(path).expect("shipped sweep parses");
        let json = serde_json::to_string(&spec).expect("sweep encodes");
        survive(&format!("{name} as JSON"), &json, 7, &|t: &str| {
            if let Ok(spec) = SweepSpec::from_json(t) {
                let _ = expand(&spec);
            }
        });
    }
    let topologies = files("examples/topologies", "json");
    assert!(topologies.len() >= 3, "topologies found: {topologies:?}");
    for path in &topologies {
        let json = std::fs::read_to_string(path).expect("topology readable");
        survive(&path.display().to_string(), &json, 3, &|t: &str| {
            if let Ok(spec) = serde_json::from_str::<TopologySpec>(t) {
                let _ = spec.build();
            }
        });
    }
    assert!(mutants > 4000, "only {mutants} mutants");
    assert!(panics.is_empty(), "mutants panicked: {panics:?}");
}
