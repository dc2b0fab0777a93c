//! End-to-end device lane: a job whose spec names a modeled GPU runs
//! through the device backend, produces bitwise the same particles as
//! its host twin, and emits telemetry carrying the `device` dimension.

use pic_serve::{JobSpec, Outcome, RejectReason, ServeConfig, Server};

fn cfg() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

fn spec(device: &str) -> JobSpec {
    JobSpec {
        particles: 200,
        steps: 8,
        seed: 11,
        return_particles: true,
        device: device.to_string(),
        ..JobSpec::default()
    }
}

fn completed_dump(server: &Server, spec: JobSpec) -> (String, f64) {
    let ticket = server
        .submit(spec, None)
        .unwrap_or_else(|r| panic!("admission refused: {r:?}"));
    let Outcome::Completed(report) = ticket.wait() else {
        panic!("expected completion, got {:?}", ticket.outcome());
    };
    (report.particles.expect("requested dump"), report.nsps)
}

#[test]
fn device_job_matches_the_host_job_bitwise_and_is_recorded() {
    let server = Server::start(cfg(), "device-test");
    let (host_dump, _) = completed_dump(&server, spec("host"));
    let (dev_dump, dev_nsps) = completed_dump(&server, spec("p630"));
    assert_eq!(
        host_dump, dev_dump,
        "device execution must not change trajectories"
    );
    assert!(dev_nsps > 0.0, "modeled NSPS is reported");
    let out = server.shutdown();
    assert_eq!(out.stats.completed, 2);
    assert_eq!(out.stats.cache_hits, 0, "host and device keys differ");
    let devices: Vec<&str> = out.records.iter().map(|r| r.device.as_str()).collect();
    assert!(
        devices.contains(&""),
        "host record keeps the empty dimension"
    );
    assert!(devices.contains(&"p630"), "{devices:?}");
}

/// A sharded device job reports what a monolithic one does: modeled
/// kernel time over particle-steps — here its shards' kernels one after
/// another on the device's one in-order queue — not wall time.
#[test]
fn sharded_device_job_reports_its_shards_modeled_kernel_time() {
    let cfg = ServeConfig {
        workers: 2,
        cache_capacity: 0,
        shard_threshold: 100,
        shards: 3,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, "device-shard-test");
    let (_, nsps) = completed_dump(&server, spec("iris-xe-max"));
    let out = server.shutdown();
    let parent = out
        .records
        .iter()
        .find(|r| r.shards == 3 && r.shard_id == 0)
        .expect("the merged parent's record");
    let shards: Vec<_> = out.records.iter().filter(|r| r.shard_id > 0).collect();
    assert_eq!(shards.len(), 3);
    let kernel_ns: f64 = shards
        .iter()
        .map(|r| r.mean_nsps * (r.particles * r.steps_per_iteration) as f64)
        .sum();
    let expect = kernel_ns / (parent.particles * parent.steps_per_iteration) as f64;
    for (what, got) in [("report", nsps), ("record", parent.mean_nsps)] {
        assert!(
            ((got - expect) / expect).abs() < 1e-9,
            "{what}: {got} against the shards' {expect}"
        );
    }
    assert!(parent.model_ratio.is_finite() && parent.model_ratio > 0.0);
}

#[test]
fn device_aliases_canonicalize_and_repeat_jobs_hit_the_cache() {
    let server = Server::start(cfg(), "device-cache-test");
    let first = completed_dump(&server, spec("iris-xe-max"));
    // Same physics, alias spelled differently on the wire: the
    // canonicalized spec must land on the same cache key.
    let aliased = JobSpec::from_value(&spec("iris-xe-max").to_value()).expect("wire round trip");
    assert_eq!(aliased.device, "iris-xe-max");
    let ticket = server
        .submit(aliased, None)
        .unwrap_or_else(|r| panic!("admission refused: {r:?}"));
    let Outcome::Completed(report) = ticket.wait() else {
        panic!("expected completion");
    };
    assert!(report.cache_hit, "identical device job is memoized");
    assert_eq!(report.particles.as_deref(), Some(first.0.as_str()));
    server.shutdown();
}

#[test]
fn unknown_device_is_shed_as_invalid() {
    let server = Server::start(cfg(), "device-shed-test");
    match server.submit(spec("fpga"), None) {
        Err(RejectReason::Invalid(why)) => assert!(why.contains("fpga"), "{why}"),
        other => panic!("expected invalid rejection, got {other:?}"),
    }
    let out = server.shutdown();
    assert_eq!(out.stats.rejected, 1);
    assert_eq!(out.records.len(), 1, "sheds emit a record too");
    assert_eq!(out.records[0].outcome, "rejected");
}
