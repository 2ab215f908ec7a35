//! Admission control and backpressure for the serving layer.
//!
//! Under saturating load, the worst failure mode is not rejection — it
//! is *stalling*: every request queues, every latency balloons, and the
//! client can't tell a slow server from a dead one. The controller here
//! makes overload explicit instead:
//!
//! * a **bounded concurrent-execution semaphore**
//!   ([`AdmissionConfig::max_concurrent`]) caps how many queries execute
//!   at once;
//! * a **bounded wait queue** ([`AdmissionConfig::max_queued`], timed by
//!   [`AdmissionConfig::queue_timeout`]) absorbs short bursts; anything
//!   beyond it is rejected immediately with a typed
//!   [`ServerError::Overloaded`];
//! * **per-request deadlines** are honored while queued — a request
//!   whose deadline expires waiting for a permit is rejected with
//!   [`ServerError::DeadlineExceeded`] without ever executing.
//!
//! The network layer adds the outer rings: a connection cap in
//! [`crate::net::NetConfig`], and a per-connection pipelining budget
//! ([`crate::net::NetConfig::max_inflight_per_conn`]) — the reactor
//! stops parsing a connection that has that many requests executing,
//! so a pipelining peer cannot queue unbounded work. Every pipelined
//! request still
//! passes both admission rings here; the reactor's cached-result fast
//! path merely probes them non-blockingly ([`AdmissionController::try_admit`])
//! instead of waiting.

use crate::error::ServerError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Admission-control knobs.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Maximum queries executing concurrently (0 = unlimited).
    pub max_concurrent: usize,
    /// Maximum requests waiting for an execution permit; arrivals beyond
    /// this are rejected `Overloaded` immediately.
    pub max_queued: usize,
    /// Longest a request may wait for a permit before rejection.
    pub queue_timeout: Duration,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: Option<Duration>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_concurrent: 0,
            max_queued: 64,
            queue_timeout: Duration::from_millis(100),
            default_deadline: None,
        }
    }
}

impl AdmissionConfig {
    /// A strict limiter: at most `max_concurrent` executions, no waiting
    /// room — everything beyond the limit rejects immediately.
    pub fn strict(max_concurrent: usize) -> Self {
        AdmissionConfig {
            max_concurrent,
            max_queued: 0,
            queue_timeout: Duration::ZERO,
            default_deadline: None,
        }
    }
}

/// Counters exposed by [`AdmissionController::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Permits granted.
    pub admitted: u64,
    /// Rejections because the queue was full or the wait timed out.
    pub rejected_overloaded: u64,
    /// Rejections because the request's deadline expired before a permit
    /// was granted.
    pub rejected_deadline: u64,
}

impl std::ops::AddAssign for AdmissionStats {
    fn add_assign(&mut self, other: Self) {
        self.admitted += other.admitted;
        self.rejected_overloaded += other.rejected_overloaded;
        self.rejected_deadline += other.rejected_deadline;
    }
}

#[derive(Default)]
struct Waitable {
    executing: usize,
    queued: usize,
}

/// The bounded concurrent-execution semaphore. All methods take `&self`;
/// share it behind the owning [`crate::ServerState`].
pub struct AdmissionController {
    config: AdmissionConfig,
    state: Mutex<Waitable>,
    freed: Condvar,
    admitted: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_deadline: AtomicU64,
}

/// An execution permit; dropping it releases the slot and wakes one
/// queued waiter.
pub struct AdmissionPermit<'a> {
    controller: &'a AdmissionController,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut s = self
            .controller
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        s.executing = s.executing.saturating_sub(1);
        drop(s);
        self.controller.freed.notify_one();
    }
}

impl AdmissionController {
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config,
            state: Mutex::new(Waitable::default()),
            freed: Condvar::new(),
            admitted: AtomicU64::new(0),
            rejected_overloaded: AtomicU64::new(0),
            rejected_deadline: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Currently executing requests.
    pub fn executing(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .executing
    }

    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_overloaded: self.rejected_overloaded.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
        }
    }

    /// Non-blocking permit acquisition for latency-critical callers (the
    /// reactor's cached-result fast path). Takes a permit only when a slot
    /// is free right now; `None` means "fall back to the queued path".
    /// Counts **nothing** either way — an abandoned probe (the sibling
    /// ring was busy) must leave no trace, so the caller records the
    /// admission via `note_admitted` only once it commits.
    pub fn try_admit(&self) -> Option<AdmissionPermit<'_>> {
        let mut s = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if self.config.max_concurrent == 0 || s.executing < self.config.max_concurrent {
            s.executing += 1;
            return Some(AdmissionPermit { controller: self });
        }
        None
    }

    /// Count an admission taken via [`Self::try_admit`] once the caller
    /// commits to serving under it, keeping `admitted` identical in
    /// meaning to the [`Self::admit`] path.
    pub(crate) fn note_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Acquire an execution permit, waiting at most
    /// [`AdmissionConfig::queue_timeout`] (and never past `deadline`).
    /// Rejections are typed: queue full / wait timed out →
    /// [`ServerError::Overloaded`]; deadline hit →
    /// [`ServerError::DeadlineExceeded`].
    pub fn admit(&self, deadline: Option<Instant>) -> Result<AdmissionPermit<'_>, ServerError> {
        if let Some(at) = deadline {
            if Instant::now() >= at {
                self.rejected_deadline.fetch_add(1, Ordering::Relaxed);
                return Err(ServerError::DeadlineExceeded(
                    "deadline expired before admission".into(),
                ));
            }
        }
        let mut s = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if self.config.max_concurrent == 0 || s.executing < self.config.max_concurrent {
            s.executing += 1;
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(AdmissionPermit { controller: self });
        }
        // Saturated: queue if there is room, else reject immediately.
        if s.queued >= self.config.max_queued {
            self.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(ServerError::Overloaded(format!(
                "{} executing, {} queued (limit {}/{})",
                s.executing, s.queued, self.config.max_concurrent, self.config.max_queued
            )));
        }
        s.queued += 1;
        let wait_started = Instant::now();
        let outcome = loop {
            if s.executing < self.config.max_concurrent {
                s.executing += 1;
                break Ok(());
            }
            let waited = wait_started.elapsed();
            if waited >= self.config.queue_timeout {
                break Err(ServerError::Overloaded(format!(
                    "timed out after {waited:?} waiting for an execution permit"
                )));
            }
            let mut budget = self.config.queue_timeout - waited;
            if let Some(at) = deadline {
                let now = Instant::now();
                if now >= at {
                    break Err(ServerError::DeadlineExceeded(
                        "deadline expired while queued for admission".into(),
                    ));
                }
                budget = budget.min(at - now);
            }
            let (guard, _timeout) = self
                .freed
                .wait_timeout(s, budget)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            s = guard;
        };
        s.queued -= 1;
        drop(s);
        match outcome {
            Ok(()) => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(AdmissionPermit { controller: self })
            }
            Err(e) => {
                match &e {
                    ServerError::DeadlineExceeded(_) => {
                        self.rejected_deadline.fetch_add(1, Ordering::Relaxed)
                    }
                    _ => self.rejected_overloaded.fetch_add(1, Ordering::Relaxed),
                };
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn unlimited_admits_everything() {
        let c = AdmissionController::new(AdmissionConfig::default());
        let p1 = c.admit(None).unwrap();
        let p2 = c.admit(None).unwrap();
        assert_eq!(c.executing(), 2);
        drop((p1, p2));
        assert_eq!(c.executing(), 0);
        assert_eq!(c.stats().admitted, 2);
    }

    #[test]
    fn strict_limit_rejects_typed_overloaded() {
        let c = AdmissionController::new(AdmissionConfig::strict(1));
        let held = c.admit(None).unwrap();
        assert!(matches!(c.admit(None), Err(ServerError::Overloaded(_))));
        drop(held);
        // Slot free again.
        assert!(c.admit(None).is_ok());
        let stats = c.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.rejected_overloaded, 1);
    }

    #[test]
    fn queued_waiter_gets_the_released_slot() {
        let c = Arc::new(AdmissionController::new(AdmissionConfig {
            max_concurrent: 1,
            max_queued: 1,
            queue_timeout: Duration::from_secs(5),
            default_deadline: None,
        }));
        let held = c.admit(None).unwrap();
        let waiter = {
            let c = c.clone();
            std::thread::spawn(move || {
                let permit = c.admit(None);
                permit.is_ok()
            })
        };
        // Give the waiter time to enqueue, then release.
        std::thread::sleep(Duration::from_millis(50));
        drop(held);
        assert!(waiter.join().unwrap(), "queued waiter must be admitted");
        assert_eq!(c.stats().admitted, 2);
    }

    #[test]
    fn queue_wait_times_out_overloaded() {
        let c = AdmissionController::new(AdmissionConfig {
            max_concurrent: 1,
            max_queued: 4,
            queue_timeout: Duration::from_millis(20),
            default_deadline: None,
        });
        let _held = c.admit(None).unwrap();
        let start = Instant::now();
        assert!(matches!(c.admit(None), Err(ServerError::Overloaded(_))));
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(c.stats().rejected_overloaded, 1);
    }

    #[test]
    fn expired_deadline_rejects_before_and_while_queued() {
        let c = AdmissionController::new(AdmissionConfig {
            max_concurrent: 1,
            max_queued: 4,
            queue_timeout: Duration::from_secs(5),
            default_deadline: None,
        });
        // Already expired: rejected before touching the queue.
        assert!(matches!(
            c.admit(Some(Instant::now())),
            Err(ServerError::DeadlineExceeded(_))
        ));
        // Expires while queued behind a held permit.
        let _held = c.admit(None).unwrap();
        let at = Instant::now() + Duration::from_millis(20);
        assert!(matches!(
            c.admit(Some(at)),
            Err(ServerError::DeadlineExceeded(_))
        ));
        assert_eq!(c.stats().rejected_deadline, 2);
    }
}
