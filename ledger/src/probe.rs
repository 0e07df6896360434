//! Probe visibility: how long after a write's `202` its effect shows up in
//! a read.
//!
//! A probe is a never-seen fact carried by one write batch. Until the
//! serving view includes it, `GET /v1/facts/{probe}` answers 404; the
//! first 200 marks it visible. Views are published in acknowledgement
//! order, so each observer polls probes oldest first.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A probe fact name and the moment its write was acknowledged.
#[derive(Debug, Clone)]
pub struct Probe {
    /// The probe's fact name.
    pub fact: String,
    /// When its write's `202` arrived.
    pub acked: Instant,
}

/// Acknowledged probes, published by the writer and consumed by every
/// observer through its own [`ProbeWatch`].
pub type ProbeFeed = Arc<Mutex<Vec<Probe>>>;

/// What one probe read showed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Seen {
    /// Still 404: keep polling.
    Pending,
    /// The first 200: the probe became visible after this long.
    Visible(Duration),
    /// Any other answer, a transport error, or the probe never appeared
    /// within the deadline: a failed operation. Timed-out probes are
    /// dropped; an error answer is retried on the next poll.
    Failed,
}

/// One observer's cursor over a [`ProbeFeed`].
#[derive(Debug)]
pub struct ProbeWatch {
    feed: ProbeFeed,
    next: usize,
    deadline: Duration,
    /// Visibility delays observed, in acknowledgement order.
    pub visible: Vec<Duration>,
}

impl ProbeWatch {
    /// A watch over `feed` that gives up on a probe `deadline` after its
    /// acknowledgement.
    pub fn new(feed: ProbeFeed, deadline: Duration) -> Self {
        Self { feed, next: 0, deadline, visible: Vec::new() }
    }

    /// The oldest probe this observer has not yet seen.
    pub fn pending(&self) -> Option<Probe> {
        self.feed.lock().expect("probe feed lock poisoned").get(self.next).cloned()
    }

    /// Probes acknowledged but not yet seen by this observer.
    pub fn outstanding(&self) -> usize {
        self.feed.lock().expect("probe feed lock poisoned").len().saturating_sub(self.next)
    }

    /// Folds the answer to one poll of `probe` (`None` for a transport
    /// error) observed at `at`.
    pub fn observe(&mut self, probe: &Probe, status: Option<u16>, at: Instant) -> Seen {
        let seen = match status {
            Some(200) => Seen::Visible(at.saturating_duration_since(probe.acked)),
            Some(404) if at.saturating_duration_since(probe.acked) <= self.deadline => {
                Seen::Pending
            }
            _ => Seen::Failed,
        };
        match seen {
            Seen::Visible(delay) => {
                self.visible.push(delay);
                self.next += 1;
            }
            // Never appeared: give up on it.
            Seen::Failed if status == Some(404) => self.next += 1,
            _ => {}
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_with(names: &[&str], acked: Instant) -> ProbeFeed {
        Arc::new(Mutex::new(
            names.iter().map(|n| Probe { fact: (*n).to_string(), acked }).collect(),
        ))
    }

    #[test]
    fn a_404_then_200_records_one_visibility_delay() {
        let t0 = Instant::now();
        let feed = feed_with(&["p0", "p1"], t0);
        let mut watch = ProbeWatch::new(Arc::clone(&feed), Duration::from_secs(5));
        let p = watch.pending().unwrap();
        assert_eq!(p.fact, "p0");
        let ms = Duration::from_millis;
        assert_eq!(watch.observe(&p, Some(404), t0 + ms(3)), Seen::Pending);
        assert_eq!(watch.observe(&p, Some(404), t0 + ms(6)), Seen::Pending);
        assert_eq!(watch.observe(&p, Some(200), t0 + ms(9)), Seen::Visible(ms(9)));
        assert_eq!(watch.visible, vec![ms(9)]);
        assert_eq!(watch.pending().unwrap().fact, "p1");
        assert_eq!(watch.outstanding(), 1);
    }

    #[test]
    fn errors_fail_but_keep_polling_and_late_probes_are_dropped() {
        let t0 = Instant::now();
        let feed = feed_with(&["p0", "p1"], t0);
        let mut watch = ProbeWatch::new(feed, Duration::from_millis(100));
        let p = watch.pending().unwrap();
        assert_eq!(watch.observe(&p, Some(500), t0), Seen::Failed);
        assert_eq!(watch.observe(&p, None, t0), Seen::Failed);
        assert_eq!(watch.pending().unwrap().fact, "p0", "an error answer is retried");
        let late = t0 + Duration::from_millis(101);
        assert_eq!(watch.observe(&p, Some(404), late), Seen::Failed);
        assert_eq!(watch.pending().unwrap().fact, "p1", "a probe past its deadline is dropped");
        assert!(watch.visible.is_empty());
    }
}
