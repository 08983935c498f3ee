//! Process health: readiness and a status note.
//!
//! **Readiness** ("can it do useful work right now?") starts false,
//! flips true once startup completes (relays bound, directory built,
//! sweep scheduled), and flips back to false during drain/shutdown so
//! probes stop routing to it. Liveness needs no state: `/healthz`
//! answers 200 whenever the server answers at all.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Shared readiness state and status note served by
/// [`ObsServer`](crate::ObsServer)'s `/healthz` and `/readyz`.
#[derive(Debug)]
pub struct Health {
    ready: AtomicBool,
    status: Mutex<String>,
}

impl Default for Health {
    fn default() -> Self {
        Health::new()
    }
}

impl Health {
    /// A fresh process: not yet ready, status `"starting"`.
    pub fn new() -> Self {
        Health {
            ready: AtomicBool::new(false),
            status: Mutex::new("starting".to_string()),
        }
    }

    /// Whether the process can serve useful work right now.
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::Relaxed)
    }

    /// Flips readiness; `/readyz` follows.
    pub fn set_ready(&self, ready: bool) {
        self.ready.store(ready, Ordering::Relaxed);
    }

    /// Replaces the free-form status note included in probe bodies
    /// (e.g. `"serving"`, `"draining"`, `"sweep 3/8"`).
    pub fn set_status(&self, status: impl Into<String>) {
        *self.status.lock().expect("health status lock") = status.into();
    }

    /// The current status note.
    pub fn status(&self) -> String {
        self.status.lock().expect("health status lock").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_not_ready() {
        let h = Health::new();
        assert!(!h.is_ready());
        assert_eq!(h.status(), "starting");
    }

    #[test]
    fn transitions_are_visible() {
        let h = Health::new();
        h.set_ready(true);
        h.set_status("serving");
        assert!(h.is_ready());
        assert_eq!(h.status(), "serving");
        h.set_ready(false);
        h.set_status("draining");
        assert!(!h.is_ready());
        assert_eq!(h.status(), "draining");
    }
}
