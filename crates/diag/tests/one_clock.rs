//! Log records and trace spans are stamped on one clock.
//!
//! The clock's epoch is pinned by its first use in the process, so this
//! check lives alone in its own test binary: the first thing it does is
//! log, long before any span exists. A logger with an epoch of its own
//! would pin it there and stamp the record inside the span that much later
//! than the span's clock says.

use std::time::Duration;

#[test]
fn a_record_logged_inside_a_span_falls_within_it() {
    arp_diag::set_console_level(None);
    arp_diag::set_ring_enabled(true);
    arp_diag::info(|| "early".into());
    std::thread::sleep(Duration::from_millis(20));

    let before = arp_trace::now_ns();
    let session = arp_trace::TraceSession::start();
    let after = arp_trace::now_ns();
    {
        let _span = arp_trace::begin(arp_trace::Cat::Process);
        arp_trace::annotate(|a| a.name = "clocked".into());
        arp_diag::info(|| "inside".into());
    }
    let trace = session.finish();
    let records = arp_diag::drain();

    let span = trace.spans.iter().find(|s| s.name == "clocked").unwrap();
    let record = records.iter().find(|r| r.message == "inside").unwrap();
    // The session started within [before, after] on the shared clock.
    assert!(
        before + span.start_ns <= record.t_ns && record.t_ns <= after + span.end_ns(),
        "record at {} outside span [{}, {}] + session start in [{before}, {after}]",
        record.t_ns,
        span.start_ns,
        span.end_ns()
    );
}
