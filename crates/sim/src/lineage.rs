//! Same-time order of decision points (DESIGN.md §14).
//!
//! A run that files every workload arrival in the calendar pops events
//! in `(time, seq)` order, where arrival `j` of a source draws its seq
//! when arrival `j − 1` pops, after that pop's handler has run, and a
//! wheel event draws its seq when it is scheduled. A run that files
//! only decision points skips the arrivals in between, so a point whose
//! predecessor was skipped cannot draw that seq. It carries no seq at
//! all (it is *virtual*), and its order against a same-time event is
//! derived here from where both were born.
//!
//! The rule: seqs are drawn in pop order, so at one instant `T` events
//! pop in *rounds*. Round 0 holds every event born before `T` — every
//! wheel event (none is scheduled for the instant it is scheduled at)
//! and each source's first arrival at `T` — ordered by the pop order of
//! their parents. Round `r` holds each source's `r`-th further arrival
//! at `T`, born during round `r − 1`, in the order of their round-0
//! entries. Comparing two events therefore compares their times, then
//! their rounds, then their round-0 entries' parents, one level further
//! back each time, until the times differ or the two share a parent: a
//! parent schedules its wheel children first, in seq order, and files
//! its arrival child last. An arrival's parent is the previous arrival
//! of its source, read from the source's pre-sorted times; a wheel
//! event's parent is recorded as its [`Birth`], and that of a popped
//! wheel event its children name in [`Births`].

use std::cmp::Ordering;

/// The pre-sorted arrival times of every source, by arrival index.
pub trait ArrivalTimes {
    /// Time in nanoseconds of arrival `idx` of `source`.
    fn arrival_ns(&self, source: u32, idx: u32) -> u64;
}

/// The popped event whose handling scheduled a wheel event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Birth {
    /// The run's set-up, before any pop.
    Setup,
    /// A popped decision point: arrival `idx` of `source`.
    Arrival { source: u32, idx: u32 },
    /// A popped wheel event, recorded in [`Births`].
    Wheel(u32),
}

/// A popped wheel event that pending events descend from.
struct Node {
    at: u64,
    seq: u64,
    birth: Birth,
    /// References to this node: births of pending wheel events and of
    /// other nodes, and the event itself while it is being handled.
    refs: u32,
}

/// The recorded wheel births, reference-counted so that a node lives
/// exactly as long as events descending from it are pending. A chain of
/// periodic timers keeps its ancestors; a drain session's chain goes
/// when its last event does.
#[derive(Default)]
pub(crate) struct Births {
    nodes: Vec<Node>,
    free: Vec<u32>,
}

impl Births {
    /// Records the popped wheel event `(at, seq)` while it is being
    /// handled: the reference `birth` it held moves into the node, and
    /// the node starts with one reference, the handled event's own.
    pub fn record(&mut self, at: u64, seq: u64, birth: Birth) -> u32 {
        let node = Node {
            at,
            seq,
            birth,
            refs: 1,
        };
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// Takes a reference to `birth`.
    pub fn retain(&mut self, birth: Birth) {
        if let Birth::Wheel(i) = birth {
            self.nodes[i as usize].refs += 1;
        }
    }

    /// Drops a reference to `birth`, freeing the nodes nothing names.
    pub fn release(&mut self, mut birth: Birth) {
        while let Birth::Wheel(i) = birth {
            let node = &mut self.nodes[i as usize];
            node.refs -= 1;
            if node.refs > 0 {
                return;
            }
            birth = node.birth;
            self.free.push(i);
        }
    }

    /// The popped wheel event node `i` records, as an event.
    fn event(&self, i: u32) -> Event {
        let node = &self.nodes[i as usize];
        Event::Wheel {
            at: node.at,
            seq: node.seq,
            birth: node.birth,
        }
    }
}

/// An event in the comparison.
#[derive(Clone, Copy)]
pub(crate) enum Event {
    /// Arrival `idx` of `source`.
    Arrival { source: u32, idx: u32 },
    /// A wheel event with its key and parent.
    Wheel { at: u64, seq: u64, birth: Birth },
}

/// A parent: the set-up or an event.
#[derive(Clone, Copy)]
enum Parent {
    Setup,
    Event(Event),
}

impl Parent {
    fn of_birth(birth: Birth, births: &Births) -> Self {
        match birth {
            Birth::Setup => Parent::Setup,
            Birth::Arrival { source, idx } => Parent::Event(Event::Arrival { source, idx }),
            Birth::Wheel(i) => Parent::Event(births.event(i)),
        }
    }

    fn same(&self, other: &Parent) -> bool {
        match (self, other) {
            (Parent::Setup, Parent::Setup) => true,
            (Parent::Event(a), Parent::Event(b)) => match (a, b) {
                (Event::Arrival { source: s, idx: i }, Event::Arrival { source: t, idx: j }) => {
                    s == t && i == j
                }
                (Event::Wheel { seq: a, .. }, Event::Wheel { seq: b, .. }) => a == b,
                _ => false,
            },
            _ => false,
        }
    }
}

impl Event {
    fn time(&self, times: &dyn ArrivalTimes) -> u64 {
        match *self {
            Event::Arrival { source, idx } => times.arrival_ns(source, idx),
            Event::Wheel { at, .. } => at,
        }
    }
}

/// The round of `e` at its instant and its round-0 entry.
fn entry(e: Event, at: u64, times: &dyn ArrivalTimes) -> (u32, Event) {
    match e {
        Event::Wheel { .. } => (0, e),
        Event::Arrival { source, idx } => {
            let mut first = idx;
            while first > 0 && times.arrival_ns(source, first - 1) == at {
                first -= 1;
            }
            (idx - first, Event::Arrival { source, idx: first })
        }
    }
}

/// The parent of a round-0 entry.
fn parent(e: Event, births: &Births) -> Parent {
    match e {
        Event::Arrival { idx: 0, .. } => Parent::Setup,
        Event::Arrival { source, idx } => Parent::Event(Event::Arrival {
            source,
            idx: idx - 1,
        }),
        Event::Wheel { birth, .. } => Parent::of_birth(birth, births),
    }
}

/// Siblings born of one parent: wheel events in seq order, then the
/// arrival (or, at set-up, the arrivals in source order).
fn siblings(x: Event, y: Event) -> Ordering {
    match (x, y) {
        (Event::Wheel { seq: a, .. }, Event::Wheel { seq: b, .. }) => a.cmp(&b),
        (Event::Wheel { .. }, Event::Arrival { .. }) => Ordering::Less,
        (Event::Arrival { .. }, Event::Wheel { .. }) => Ordering::Greater,
        (Event::Arrival { source: a, .. }, Event::Arrival { source: b, .. }) => a.cmp(&b),
    }
}

/// The order in which `x` and `y` pop when every arrival is filed.
pub(crate) fn cmp(
    mut x: Event,
    mut y: Event,
    times: &dyn ArrivalTimes,
    births: &Births,
) -> Ordering {
    loop {
        let (tx, ty) = (x.time(times), y.time(times));
        if tx != ty {
            return tx.cmp(&ty);
        }
        match (x, y) {
            (Event::Wheel { seq: a, .. }, Event::Wheel { seq: b, .. }) => return a.cmp(&b),
            (Event::Arrival { source: s, idx: i }, Event::Arrival { source: t, idx: j })
                if s == t =>
            {
                return i.cmp(&j)
            }
            _ => {}
        }
        let (rx, ex) = entry(x, tx, times);
        let (ry, ey) = entry(y, ty, times);
        if rx != ry {
            return rx.cmp(&ry);
        }
        let (px, py) = (parent(ex, births), parent(ey, births));
        if px.same(&py) {
            return siblings(ex, ey);
        }
        match (px, py) {
            (Parent::Setup, _) => return Ordering::Less,
            (_, Parent::Setup) => return Ordering::Greater,
            (Parent::Event(a), Parent::Event(b)) => (x, y) = (a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-source arrival times.
    struct Times(Vec<Vec<u64>>);

    impl ArrivalTimes for Times {
        fn arrival_ns(&self, source: u32, idx: u32) -> u64 {
            self.0[source as usize][idx as usize]
        }
    }

    fn arrival(source: u32, idx: u32) -> Event {
        Event::Arrival { source, idx }
    }

    #[test]
    fn later_rounds_follow_every_wheel_event() {
        // Source 0 has three arrivals at 10; a wheel event at 10 born
        // at set-up pops after the first and before the other two.
        let births = Births::default();
        let times = Times(vec![vec![10, 10, 10]]);
        let wheel = Event::Wheel {
            at: 10,
            seq: 0,
            birth: Birth::Setup,
        };
        assert_eq!(
            cmp(arrival(0, 0), wheel, &times, &births),
            Ordering::Greater
        );
        assert_eq!(
            cmp(arrival(0, 1), wheel, &times, &births),
            Ordering::Greater
        );
        let child = Event::Wheel {
            at: 20,
            seq: 1,
            birth: Birth::Arrival { source: 0, idx: 0 },
        };
        let times = Times(vec![vec![10, 20]]);
        // Scheduled while arrival 0 was handled, before arrival 1 was
        // filed: the wheel child goes first.
        assert_eq!(cmp(child, arrival(0, 1), &times, &births), Ordering::Less);
    }

    #[test]
    fn round_zero_entries_order_by_their_parents() {
        let births = Births::default();
        // Both sources reach 30 in round 0; source 1's parent (20) is
        // earlier than source 0's (25).
        let times = Times(vec![vec![25, 30, 30], vec![20, 30]]);
        assert_eq!(
            cmp(arrival(1, 1), arrival(0, 1), &times, &births),
            Ordering::Less
        );
        // Round 1 of source 0 follows round 0 of source 1 regardless.
        assert_eq!(
            cmp(arrival(0, 2), arrival(1, 1), &times, &births),
            Ordering::Greater
        );
        // Equal parents' times recurse: both first arrivals were filed
        // at set-up, in source order.
        let times = Times(vec![vec![5, 9], vec![5, 9]]);
        assert_eq!(
            cmp(arrival(0, 1), arrival(1, 1), &times, &births),
            Ordering::Less
        );
    }

    #[test]
    fn wheel_parents_recurse_through_their_births() {
        // A wheel event at 50 born at a wheel event at 40 (itself born
        // at set-up) against source 0's arrival at 50 whose parent is at
        // 40: the set-up-born wheel event at 40 pops before the arrival
        // at 40 born after set-up, so the wheel child at 50 goes first.
        let mut births = Births::default();
        let times = Times(vec![vec![40, 50]]);
        let grand = births.record(40, 3, Birth::Setup);
        let wheel = Event::Wheel {
            at: 50,
            seq: 7,
            birth: Birth::Wheel(grand),
        };
        assert_eq!(cmp(wheel, arrival(0, 1), &times, &births), Ordering::Less);
        assert_eq!(
            cmp(arrival(0, 1), wheel, &times, &births),
            Ordering::Greater
        );
    }

    #[test]
    fn nodes_live_as_long_as_their_descendants() {
        let mut births = Births::default();
        // A chain: a node whose child node is named by one pending event.
        let a = births.record(1, 1, Birth::Setup);
        births.retain(Birth::Wheel(a));
        let b = births.record(2, 2, Birth::Wheel(a));
        births.retain(Birth::Wheel(b));
        // Both events were handled.
        births.release(Birth::Wheel(a));
        births.release(Birth::Wheel(b));
        assert_eq!(births.free, Vec::<u32>::new(), "both still named");
        births.release(Birth::Wheel(b));
        assert_eq!(
            births.free,
            vec![b, a],
            "the chain goes with its last event"
        );
        // Freed slots are reused.
        assert_eq!(births.record(3, 3, Birth::Setup), a);
    }
}
