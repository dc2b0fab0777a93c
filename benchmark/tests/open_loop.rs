//! An open loop times a job from when it was *due*: if the sender falls
//! behind, the jobs it delayed carry the delay.

use pic_benchmark::jobs::{RatePhase, SmallMix};
use pic_benchmark::serve::{open_loop, with_service};
use pic_benchmark::stats::median;
use pic_benchmark::trace::Tracer;
use pic_serve::ServeConfig;
use std::time::Duration;

#[test]
fn a_stalled_sender_charges_the_stall_to_the_jobs_it_delayed() {
    const STALLED_JOB: usize = 30;
    const STALL_MS: f64 = 150.0;
    let phases = [RatePhase {
        rate: 200.0,
        seconds: 0.4,
    }];
    let mut arrivals = SmallMix::new(11, 1).schedule(&phases);
    assert_eq!(arrivals.len(), 80);
    // Tiny jobs, so that even an unoptimised build serves 200 a second.
    for a in &mut arrivals {
        (a.spec.particles, a.spec.steps) = (40, 2);
    }
    let run = with_service(ServeConfig::default(), |client, _| {
        let stall = Some((STALLED_JOB, Duration::from_millis(STALL_MS as u64)));
        open_loop(client, &arrivals, 1, &mut Tracer::new(false), stall)
    })
    .expect("the wire works");
    assert_eq!(run.replies.len(), arrivals.len());
    assert!(run.replies.iter().all(|r| r.kind == "completed"));
    let mut latency = vec![0.0; arrivals.len()];
    for (reply, &ms) in run.replies.iter().zip(&run.latency_ms[0]) {
        latency[reply.tag] = ms;
    }
    // The stalled job was written a stall late (less the 5 ms it was
    // still ahead of its due time when the stall began) and its latency
    // says so, though the service answered it in a few milliseconds.
    let late = run.late_ms[0][STALLED_JOB];
    assert!(late >= STALL_MS - 10.0, "{late}");
    assert!(latency[STALLED_JOB] >= late);
    // So do the jobs that fell due during the stall (5 ms apart): the
    // tenth of them was still ~100 ms behind its schedule.
    assert!(
        latency[STALLED_JOB + 10] >= STALL_MS - 60.0,
        "{:?}",
        latency[STALLED_JOB + 10]
    );
    // Jobs sent before the stall never saw it.
    assert!(median(&latency[..STALLED_JOB]) < STALL_MS / 2.0);
    assert!(median(&run.late_ms[0][..STALLED_JOB]) < 5.0);
}

#[test]
fn a_reply_line_that_trails_its_jobs_completion_does_not_break_the_close() {
    // A cache hit completes inside `submit`, so its `completed` line is
    // written before its `accepted` line: the client has its answer while
    // a line is still on the way. Closing must take that line in, or the
    // service's end of the socket fails with ECONNRESET.
    let spec = pic_serve::JobSpec {
        particles: 40,
        steps: 2,
        ..pic_serve::JobSpec::default()
    };
    for _ in 0..20 {
        with_service(ServeConfig::default(), |client, _| {
            let (_, first) = client.call(0, &spec, false)?;
            let (_, again) = client.call(1, &spec, false)?;
            assert!(!first.cache_hit && again.cache_hit);
            Ok(())
        })
        .expect("a clean close");
    }
}
