//! The result line the benchmark contract asks for, and its reader.

use crate::spec::{MetricDef, Outcome};
use pic_telemetry::json::{parse, Value};
use std::collections::BTreeMap;

/// One run's result as read back from its last output line.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// No operation failed and every metric was measured.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// The metrics of `defs` the outcome holds a finite value for.
fn measured<'a>(
    out: &'a Outcome,
    defs: &'a [MetricDef],
) -> impl Iterator<Item = (&'a MetricDef, f64)> {
    defs.iter()
        .filter_map(|d| out.metrics.get(d.name).map(|&v| (d, v)))
        .filter(|(_, v)| v.is_finite())
}

/// True when nothing failed and every metric of `defs` was measured.
pub fn correct(out: &Outcome, defs: &[MetricDef]) -> bool {
    out.failed == 0 && out.attempted > 0 && measured(out, defs).count() == defs.len()
}

/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
/// with every value printed to its last digit.
pub fn result_line(out: &Outcome, defs: &[MetricDef]) -> String {
    let metrics: Vec<String> = measured(out, defs)
        .map(|(d, v)| format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", d.name, d.unit))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct(out, defs),
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    )
}

/// `workload/metric value unit` lines, then the notes.
pub fn human_lines(workload: &str, out: &Outcome, defs: &[MetricDef]) -> Vec<String> {
    let mut lines: Vec<String> = measured(out, defs)
        .map(|(d, v)| format!("{workload}/{} {v:.6} {}", d.name, d.unit))
        .collect();
    lines.push(format!(
        "{workload}: {} operations attempted, {} failed",
        out.attempted, out.failed
    ));
    lines.extend(out.notes.iter().map(|n| format!("{workload}: {n}")));
    lines
}

/// Reads a result line back.
pub fn parse_result(line: &str) -> Option<RunResult> {
    let v = parse(line).ok()?;
    let Value::Obj(entries) = v.get("metrics")? else {
        return None;
    };
    let metrics = entries
        .iter()
        .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect::<Option<_>>()?;
    Some(RunResult {
        correct: v.get("correct")? == &Value::Bool(true),
        attempted: v.get("attempted")?.as_u64()?,
        failed: v.get("failed")?.as_u64()?,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;

    #[test]
    fn the_result_line_round_trips_and_flags_missing_metrics() {
        let mut out = Outcome {
            attempted: 12,
            ..Outcome::default()
        };
        for (i, d) in END_TO_END.iter().enumerate() {
            out.metrics.insert(d.name, 1.2034 + i as f64);
        }
        let back = parse_result(&result_line(&out, END_TO_END)).expect("parses");
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (12, 0));
        assert_eq!(back.metrics.len(), END_TO_END.len());
        assert_eq!(back.metrics["setup_s"], 1.2034);
        out.metrics.insert("setup_s", f64::NAN);
        let back = parse_result(&result_line(&out, END_TO_END)).expect("parses");
        assert!(!back.correct);
        out.metrics.insert("setup_s", 1.0);
        out.failed = 1;
        assert!(
            !parse_result(&result_line(&out, END_TO_END))
                .expect("parses")
                .correct
        );
    }
}
