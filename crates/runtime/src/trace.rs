//! Protocol-level trace events, shared by every driver.

use mdbs_dtm::Message;
use mdbs_histories::{GlobalTxnId, Instance, SiteId};
use mdbs_simkit::{AppliedFault, SimTime};

/// A protocol-level trace event, delivered to the observer installed on a
/// driver (e.g. `Simulation::set_observer`). Useful for narrated demos and
/// debugging; a driver without an observer pays nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A 2PC message was handed to the network.
    MessageSent {
        /// Simulated send time.
        at: SimTime,
        /// Sending node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// The message.
        msg: Message,
    },
    /// The fault injector perturbed a 2PC message on the wire.
    FaultInjected {
        /// Simulated send time.
        at: SimTime,
        /// Sending node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// What the injector did to the message.
        fault: AppliedFault,
    },
    /// A subtransaction entered the prepared state at a site.
    Prepared {
        /// Simulated time.
        at: SimTime,
        /// The site.
        site: SiteId,
        /// The transaction.
        gtxn: GlobalTxnId,
    },
    /// An injected unilateral abort struck an instance.
    UnilateralAbort {
        /// Simulated time.
        at: SimTime,
        /// The aborted instance.
        instance: Instance,
    },
    /// A whole site crashed.
    SiteCrash {
        /// Simulated time.
        at: SimTime,
        /// The site.
        site: SiteId,
    },
    /// A local waits-for cycle was broken by aborting a victim.
    DeadlockVictim {
        /// Simulated time.
        at: SimTime,
        /// The aborted instance.
        instance: Instance,
    },
    /// A transaction blocked past its wait timeout was aborted.
    WaitTimeout {
        /// Simulated time.
        at: SimTime,
        /// The aborted instance.
        instance: Instance,
        /// How long it had waited, µs.
        waited_us: u64,
        /// The timeout it exceeded, µs: the site's learned one, or the
        /// host's ceiling (`WAIT_TIMEOUT_US` outside the explorer).
        timeout_us: u64,
    },
    /// A global transaction reached its final outcome.
    Finished {
        /// Simulated time.
        at: SimTime,
        /// The transaction.
        gtxn: GlobalTxnId,
        /// Whether it committed.
        committed: bool,
    },
}

/// Observer callback type.
pub type Observer = Box<dyn FnMut(&TraceEvent)>;
