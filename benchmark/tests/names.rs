//! `BENCHMARK.json` and the crate name the same workloads and metrics.

use pic_benchmark::spec::{Workload, END_TO_END, PER_LAYER};
use pic_telemetry::json::{parse, Value};
use std::collections::BTreeSet;

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json is JSON")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn listed(contract: &Value, key: &str) -> Vec<(String, Option<String>)> {
    contract
        .get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|entry| {
            let field = |f: &str| entry.get(f).and_then(Value::as_str).map(str::to_owned);
            (
                field("name").expect("every entry has a name"),
                field("unit"),
            )
        })
        .collect()
}

#[test]
fn every_name_is_well_formed_and_used_once() {
    let mut seen = BTreeSet::new();
    let names = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
    for name in names {
        assert!(well_formed(name), "{name:?}");
        assert!(seen.insert(name), "{name:?} is used twice");
    }
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
}

#[test]
fn the_contract_lists_exactly_the_crates_workloads_and_metrics() {
    let contract = contract();
    let workloads: Vec<String> = listed(&contract, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let theirs = listed(&contract, key);
        let ours: Vec<(String, Option<String>)> = defs
            .iter()
            .map(|d| (d.name.to_owned(), Some(d.unit.to_owned())))
            .collect();
        assert_eq!(theirs, ours, "{key}");
    }
    let setup = contract
        .get("end_to_end")
        .and_then(Value::as_arr)
        .and_then(|l| {
            l.iter()
                .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        })
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    assert_eq!(
        contract
            .get("paths")
            .and_then(Value::as_arr)
            .map(<[Value]>::len),
        Some(1)
    );
}
