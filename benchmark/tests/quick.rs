//! A 1/20-scale pass of every workload, untraced and traced: every
//! metric is reported, nothing fails, and the span files are well formed.
//! No assertion looks at a timing's size.

use pic_benchmark::cli::run_workload;
use pic_benchmark::report::{parse_result, result_line};
use pic_benchmark::spec::{RunArgs, Workload, END_TO_END, PER_LAYER};
use pic_telemetry::json::{parse, Value};
use std::path::PathBuf;

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick-out")
}

fn check_span_file(workload: Workload) {
    let path = out_dir().join(format!("trace_{}.json", workload.name()));
    let doc = parse(&std::fs::read_to_string(&path).expect("span file written")).expect("JSON");
    let spans = doc
        .get("spans")
        .and_then(Value::as_arr)
        .expect("spans list");
    assert!(!spans.is_empty(), "{}", path.display());
    let field = |s: &Value, f: &str| s.get(f).and_then(Value::as_u64);
    let mut with_parent = 0;
    for (i, span) in spans.iter().enumerate() {
        assert_eq!(field(span, "id"), Some(i as u64));
        let name = span.get("name").and_then(Value::as_str).expect("name");
        assert!(name.contains('.'), "span names are layer.operation: {name}");
        let (start, end) = (
            field(span, "start_ns").expect("start"),
            field(span, "end_ns").expect("end"),
        );
        assert!(start <= end, "{name}");
        assert!(field(span, "op_id").is_some());
        if let Some(parent) = field(span, "parent") {
            with_parent += 1;
            let parent = &spans[parent as usize];
            assert!(
                field(parent, "start_ns").expect("start") <= start,
                "{name} starts before its parent"
            );
            assert!(
                end <= field(parent, "end_ns").expect("end"),
                "{name} ends after its parent"
            );
        } else {
            assert_eq!(span.get("parent"), Some(&Value::Null));
        }
    }
    let serves = matches!(
        workload,
        Workload::ServeSmallOpen | Workload::ServeShardClosed
    );
    assert_eq!(
        with_parent > 0,
        serves,
        "jobs have child spans, sweep steps do not"
    );
}

#[test]
fn all_four_workloads_run_at_quick_scale() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args = RunArgs {
                seed: 42,
                seconds: 1.2,
                trace,
                quick: true,
            };
            let out = run_workload(workload, &args, &out_dir());
            assert_eq!(
                out.failed,
                0,
                "{} trace={trace}: {:?}",
                workload.name(),
                out.notes
            );
            let defs = if trace { PER_LAYER } else { END_TO_END };
            let result = parse_result(&result_line(&out, defs)).expect("a result line");
            assert!(result.correct, "{}: {:?}", workload.name(), out.notes);
            assert_eq!(result.metrics.len(), defs.len());
            if trace {
                check_span_file(workload);
            } else {
                for d in END_TO_END {
                    assert!(result.metrics[d.name] > 0.0, "{} is never 0", d.name);
                }
            }
        }
    }
}
