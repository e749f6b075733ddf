//! Spec round-trips: every spec type must survive TOML ⇄ struct ⇄ JSON
//! unchanged, and malformed specs must fail with messages that name the
//! offending field.

use horse_lab::prelude::*;
use serde::{Deserialize, Serialize};

fn full_spec() -> SweepSpec {
    SweepSpec::from_toml(
        r#"
        name = "full"
        replicates = 3
        threads = 2

        [scenario]
        kind = "ixp"
        members = 40
        horizon_secs = 1.5
        edge_switches = 4
        core_switches = 2
        offered_gbps = 1.25
        zipf_alpha = 0.8
        seed = 7
        member_port_speeds_gbps = [10.0, 40.0]
        uplink_gbps = 100.0

        [scenario.sizes]
        dist = "pareto"
        alpha = 1.3
        min_bytes = 500000
        max_bytes = 100000000

        [scenario.diurnal]
        peak_hour = 21.0
        trough_frac = 0.33

        [[scenario.policies]]
        type = "load_balancing"
        mode = "ecmp"

        [[scenario.policies]]
        type = "rate_limit"
        src = "m1"
        dst = "m2"
        rate_mbps = 500.0

        [config]
        ctrl_latency_us = 250.0
        alloc_mode = "incremental"
        stats_epoch_secs = 1.0
        admit_retry_limit = 4

        [axes]
        ctrl_latency_us = [0, 250, 1000]
        members = [20, 40]
        "#,
    )
    .expect("full spec parses")
}

#[test]
fn toml_struct_json_struct_roundtrip() {
    let spec = full_spec();
    // struct → JSON → struct
    let js = serde_json::to_string(&spec).unwrap();
    let back: SweepSpec = serde_json::from_str(&js).unwrap();
    assert_eq!(spec, back, "JSON round-trip must be lossless");
    // struct → TOML → struct
    let toml_text = toml::to_string_pretty(&spec).unwrap();
    let back: SweepSpec = toml::from_str(&toml_text).unwrap();
    assert_eq!(spec, back, "TOML round-trip must be lossless");
    // and the round-tripped spec expands to the same grid
    let a = expand(&spec).unwrap();
    let b = expand(&back).unwrap();
    assert_eq!(a, b);
}

#[test]
fn json_specs_load_like_toml_specs() {
    let spec = full_spec();
    let js = serde_json::to_string(&spec).unwrap();
    let from_json = SweepSpec::from_json(&js).unwrap();
    assert_eq!(spec, from_json);
}

#[test]
fn scenario_spec_roundtrips_standalone() {
    let spec = full_spec();
    let v = spec.scenario.to_value();
    let back = ScenarioSpec::from_value(&v).unwrap();
    assert_eq!(spec.scenario, back);
}

#[test]
fn config_spec_defaults_roundtrip() {
    // all-absent config: Null fields must come back as None, not errors
    let cfg = SimConfigSpec::default();
    let v = cfg.to_value();
    let back = SimConfigSpec::from_value(&v).unwrap();
    assert_eq!(cfg, back);
    let from_empty: SimConfigSpec = toml::from_str("").unwrap();
    assert_eq!(from_empty, cfg);
}

#[test]
fn errors_name_the_offending_field() {
    // wrong type for a typed field
    let err = SweepSpec::from_toml(
        r#"
        name = "x"
        [scenario]
        kind = "ixp"
        members = "lots"
        horizon_secs = 1.0
        "#,
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("members"), "names the field: {msg}");

    // unknown policy type lists the known ones
    let err = SweepSpec::from_toml(
        r#"
        name = "x"
        [scenario]
        kind = "ixp"
        members = 5
        horizon_secs = 1.0
        [[scenario.policies]]
        type = "teleportation"
        "#,
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("teleportation"), "{msg}");
    assert!(msg.contains("load_balancing"), "lists alternatives: {msg}");

    // bad TOML syntax reports the line
    let err = SweepSpec::from_toml("name = \"x\"\nscenario =").unwrap_err();
    assert!(err.to_string().contains("line 2"), "{err}");
}

/// The keys every scenario kind accepts.
const COMMON_KEYS: [&str; 24] = [
    "chaos_crash_downtime_secs",
    "chaos_ctrl_latency_factor",
    "chaos_ctrl_latency_spikes",
    "chaos_ctrl_outage_secs",
    "chaos_ctrl_outages",
    "chaos_ctrl_spike_secs",
    "chaos_flap_downtime_secs",
    "chaos_flap_rate_per_sec",
    "chaos_gray_capacity_factor",
    "chaos_gray_duration_secs",
    "chaos_gray_links",
    "chaos_gray_loss_frac",
    "chaos_link_flaps",
    "chaos_seed",
    "chaos_start_secs",
    "chaos_switch_crashes",
    "fidelity",
    "foreground_flows",
    "horizon_secs",
    "seed",
    "whatif_at_secs",
    "whatif_fail_secs",
    "whatif_link_down",
    "whatif_repair_secs",
];

fn sorted_keys(v: &serde::Value) -> Vec<String> {
    let mut keys: Vec<String> = v.as_map().unwrap().iter().map(|(k, _)| k.clone()).collect();
    keys.sort();
    keys
}

#[test]
fn accepted_key_sets_are_pinned() {
    let family_keys: [(&str, &str, &[&str]); 3] = [
        ("figure1", "", &[]),
        (
            "ixp",
            "members = 4",
            &[
                "core_switches",
                "diurnal",
                "edge_switches",
                "load_factor",
                "member_port_speeds_gbps",
                "members",
                "offered_gbps",
                "policies",
                "sizes",
                "uplink_gbps",
                "zipf_alpha",
            ],
        ),
        (
            "fabric",
            "topology = \"fat_tree\"",
            &[
                "access_gbps",
                "degree",
                "fat_tree_k",
                "hosts",
                "hosts_per_leaf",
                "hosts_per_pop",
                "leaves",
                "load_factor",
                "offered_gbps",
                "oversubscription",
                "pattern",
                "policies",
                "sizes",
                "spines",
                "switches",
                "topology",
                "trunk_gbps",
                "wan_file",
            ],
        ),
    ];
    for (kind, extra, own) in family_keys {
        let spec = SweepSpec::from_toml(&format!(
            "name = \"keys\"\n[scenario]\nkind = \"{kind}\"\nhorizon_secs = 1.0\n{extra}\n"
        ))
        .unwrap();
        let mut expected: Vec<&str> = COMMON_KEYS.iter().chain(own).copied().collect();
        expected.push("kind");
        expected.sort_unstable();
        assert_eq!(sorted_keys(&spec.scenario.to_value()), expected, "{kind}");
    }
    assert_eq!(
        sorted_keys(&SimConfigSpec::default().to_value()),
        [
            "admit_retry_limit",
            "alarm_threshold",
            "alloc_mode",
            "avg_packet_bytes",
            "ctrl_latency_us",
            "engine_threads",
            "expiry_scan_secs",
            "macro_flows",
            "pkt_burst",
            "pkt_decision_cache",
            "stats_epoch_secs",
        ]
    );
}

#[test]
fn unknown_keys_are_rejected() {
    let err = |toml_text: &str| SweepSpec::from_toml(toml_text).unwrap_err().to_string();

    let msg = err(r#"
        name = "x"
        [scenario]
        kind = "fabric"
        topology = "fat_tree"
        horizon_secs = 1.0
        chaos_link_flap = 4
        "#);
    assert!(
        msg.contains("`chaos_link_flap` in [scenario]") && msg.contains("chaos_link_flaps"),
        "names the key and lists the accepted ones: {msg}"
    );

    let msg = err(r#"
        name = "x"
        [scenario]
        kind = "ixp"
        members = 4
        horizon_secs = 1.0
        [config]
        ctrl_latncy_us = 5000.0
        "#);
    assert!(
        msg.contains("`ctrl_latncy_us` in [config]") && msg.contains("ctrl_latency_us"),
        "names the key and lists the accepted ones: {msg}"
    );

    // A knob that no longer exists is an unknown key, not a silent no-op.
    let msg = err(r#"
        name = "x"
        [scenario]
        kind = "ixp"
        members = 4
        horizon_secs = 1.0
        [config]
        warm_start = true
        "#);
    assert!(
        msg.contains("`warm_start` in [config]") && msg.contains("macro_flows"),
        "names the removed key and lists the accepted ones: {msg}"
    );

    let msg = err(r#"
        name = "x"
        [scenario]
        kind = "fabric"
        topology = "fat_tree"
        horizon_secs = 1.0
        members = 999
        "#);
    assert!(
        msg.contains("`members` in [scenario] (kind = \"fabric\")") && msg.contains("fat_tree_k"),
        "a key of another kind is unknown to this one: {msg}"
    );
}

#[test]
fn full_scenario_serde_roundtrip_preserves_behaviour() {
    use horse::prelude::*;
    // a Scenario (not just a spec) is itself serializable: topology
    // travels as cables, ids re-derive identically
    let original = Scenario::figure1(SimTime::from_secs(1), 11);
    let js = serde_json::to_string(&original).unwrap();
    let rebuilt: Scenario = serde_json::from_str(&js).unwrap();
    assert_eq!(rebuilt.members, original.members);
    assert_eq!(rebuilt.policy, original.policy);
    assert_eq!(rebuilt.horizon, original.horizon);
    let run = |s: Scenario| {
        let mut sim = Simulation::new(s, SimConfig::default()).expect("valid");
        let r = sim.run();
        (r.events, r.flows_admitted, r.flows_completed)
    };
    assert_eq!(run(original), run(rebuilt));
}
