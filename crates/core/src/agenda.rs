//! The simulator's pending-event agenda.
//!
//! [`SystemSimulator`](crate::system::SystemSimulator) never has more
//! than one arrival, one decode completion and one wake-up pending: the
//! next arrival is scheduled only when the previous one pops, one frame
//! decodes at a time, and one wake-up runs per idle epoch. Sleep
//! commands are the only kind that piles up, because a command whose
//! idle period ended early stays queued until its time comes (a TISMDP
//! plan's off step lies minutes out, so thousands can be pending).
//!
//! [`Agenda`] is laid out by that shape: one slot per single-pending
//! kind with its payload in a plain field, and the sleep commands alone
//! in a deque kept sorted by key. Every entry carries the same packed
//! `(time, sequence)` key, drawn from one counter, so pops follow the
//! global `(time, push order)` order of a binary-heap event queue
//! exactly, for every push sequence — ties, stale sleep commands and
//! the clock after a full drain included. A pop is an argmin over four
//! keys whose winning index *is* the event kind; the caller dispatches
//! on it once and reads the payload from the agenda's fields.

use dpm::policy::SleepState;
use simcore::time::SimTime;
use std::collections::VecDeque;

/// The kind of event an [`Agenda::pop`] returned. Its discriminant is
/// the index of the kind's key in the agenda's key array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Frame [`Agenda::arrival`] of the trace arrives.
    Arrival = 0,
    /// The frame currently decoding completes.
    Decode = 1,
    /// A wake-up transition of idle epoch [`Agenda::wake_epoch`]
    /// completes.
    Wake = 2,
    /// The DPM plan of idle epoch [`Agenda::sleep`]`.0` commands sleep
    /// state [`Agenda::sleep`]`.1`.
    Sleep = 3,
}

const KINDS: [Kind; 4] = [Kind::Arrival, Kind::Decode, Kind::Wake, Kind::Sleep];

/// Key of an empty slot. Sorts after every real key: a real key equals
/// it only after `u64::MAX` pushes (debug-asserted in [`Agenda::key`]).
const EMPTY: u128 = u128::MAX;

/// A pending sleep command: packed key, idle epoch, commanded state.
type SleepCmd = (u128, u64, SleepState);

/// Pending events of one simulation, one slot per kind.
#[derive(Debug)]
pub(crate) struct Agenda {
    /// Packed `(at, seq)` key per [`Kind`] — `at` in the high 64 bits,
    /// `seq` in the low 64, so one integer comparison orders entries
    /// like the tuple. The [`Kind::Sleep`] entry mirrors the front of
    /// `sleeps`. [`EMPTY`] marks a free slot.
    keys: [u128; 4],
    /// Trace index of the pending (or last popped) arrival.
    arrival: usize,
    /// Idle epoch of the pending (or last popped) wake-up.
    wake_epoch: u64,
    /// Epoch and state of the last popped sleep command.
    sleep: (u64, SleepState),
    /// Pending sleep commands, ascending by key.
    sleeps: VecDeque<SleepCmd>,
    next_seq: u64,
    now: SimTime,
}

impl Agenda {
    /// An empty agenda at [`SimTime::ZERO`] with room for
    /// `sleep_capacity` pending sleep commands before reallocating.
    pub(crate) fn with_sleep_capacity(sleep_capacity: usize) -> Agenda {
        Agenda {
            keys: [EMPTY; 4],
            arrival: 0,
            wake_epoch: 0,
            sleep: (0, SleepState::Standby),
            sleeps: VecDeque::with_capacity(sleep_capacity),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The due time of the most recently popped event, or
    /// [`SimTime::ZERO`] before the first pop.
    #[inline]
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Trace index of the arrival the last [`Kind::Arrival`] pop
    /// returned.
    #[inline]
    pub(crate) fn arrival(&self) -> usize {
        self.arrival
    }

    /// Idle epoch of the wake-up the last [`Kind::Wake`] pop returned.
    #[inline]
    pub(crate) fn wake_epoch(&self) -> u64 {
        self.wake_epoch
    }

    /// Idle epoch and state of the command the last [`Kind::Sleep`] pop
    /// returned.
    #[inline]
    pub(crate) fn sleep(&self) -> (u64, SleepState) {
        self.sleep
    }

    /// The next packed key for an event at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies before the clock: the simulated past cannot
    /// be changed. An event *at* the current time is allowed.
    #[inline]
    fn key(&mut self, at: SimTime) -> u128 {
        assert!(
            at >= self.now,
            "cannot schedule an event at {at} in the past of {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        debug_assert!(seq != u64::MAX, "sequence counter exhausted");
        (u128::from(at.as_nanos()) << 64) | u128::from(seq)
    }

    /// Occupies the slot of a single-pending kind.
    #[inline]
    fn occupy(&mut self, kind: Kind, at: SimTime) {
        let key = self.key(at);
        let slot = &mut self.keys[kind as usize];
        assert!(*slot == EMPTY, "a {kind:?} event is already pending");
        *slot = key;
    }

    /// Schedules the arrival of trace frame `index` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or an arrival is already pending.
    #[inline]
    pub(crate) fn push_arrival(&mut self, at: SimTime, index: usize) {
        self.occupy(Kind::Arrival, at);
        self.arrival = index;
    }

    /// Schedules the completion of the frame in flight at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or a completion is already pending.
    #[inline]
    pub(crate) fn push_decode(&mut self, at: SimTime) {
        self.occupy(Kind::Decode, at);
    }

    /// Schedules the end of idle epoch `epoch`'s wake-up at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or a wake-up is already pending.
    #[inline]
    pub(crate) fn push_wake(&mut self, at: SimTime, epoch: u64) {
        self.occupy(Kind::Wake, at);
        self.wake_epoch = epoch;
    }

    /// Schedules idle epoch `epoch`'s command to enter `state` at `at`.
    /// Any number may be pending, in any time order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    #[inline]
    pub(crate) fn push_sleep(&mut self, at: SimTime, epoch: u64, state: SleepState) {
        let key = self.key(at);
        if self.sleeps.back().is_none_or(|&(last, _, _)| last < key) {
            self.sleeps.push_back((key, epoch, state));
        } else {
            // Keys are unique (the sequence is), so the insertion point
            // is exact.
            let pos = self.sleeps.partition_point(|&(k, _, _)| k < key);
            self.sleeps.insert(pos, (key, epoch, state));
        }
        // The new command is the front exactly when it sorts first.
        let front = &mut self.keys[Kind::Sleep as usize];
        *front = (*front).min(key);
    }

    /// Removes the earliest pending event, advances the clock to its
    /// time and returns its kind; its payload is then readable through
    /// [`Self::arrival`], [`Self::wake_epoch`] or [`Self::sleep`].
    /// Simultaneous events pop in push order. `None` when nothing is
    /// pending (the clock stays put).
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Kind> {
        // Free slots hold `EMPTY`, which loses every `<` against a real
        // key, so they drop out without an occupancy test. Keys are
        // unique, so the winner does not depend on the scan order.
        let mut best = self.keys[0];
        let mut kind = 0;
        for (i, &key) in self.keys.iter().enumerate().skip(1) {
            let less = key < best;
            best = if less { key } else { best };
            kind = if less { i } else { kind };
        }
        if best == EMPTY {
            return None;
        }
        self.now = SimTime::from_nanos((best >> 64) as u64);
        let kind = KINDS[kind];
        if kind == Kind::Sleep {
            let (_, epoch, state) = self
                .sleeps
                .pop_front()
                .expect("sleep key mirrors the front");
            self.sleep = (epoch, state);
            self.keys[Kind::Sleep as usize] = self.sleeps.front().map_or(EMPTY, |&(k, _, _)| k);
        } else {
            self.keys[kind as usize] = EMPTY;
        }
        Some(kind)
    }
}

#[cfg(test)]
mod tests {
    //! Differential tests against the binary-heap [`EventQueue`]: both
    //! are driven by the same operation streams and must agree on every
    //! popped `(at, event)` and on the clock after every step and after
    //! a full drain.

    use super::*;
    use proptest::prelude::*;
    use simcore::event::EventQueue;
    use simcore::rng::SimRng;
    use simcore::time::SimDuration;

    /// An event as the reference queue carries it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Event {
        Arrival(usize),
        Decode,
        Wake(u64),
        Sleep(u64, SleepState),
    }

    /// One randomized operation.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Push an event of kind `kind % 4` at `now + dt`, unless it is a
        /// single-pending kind whose slot is taken (the simulator never
        /// does that). `dt = 0` is a zero-delay event.
        Push { kind: u8, dt: u64 },
        /// Push a sleep command `gap` after the latest sleep time pushed
        /// so far (or after `now`, if later): nondecreasing times, with
        /// equal-time ties when `gap = 0`.
        SleepAfterLast { gap: u64 },
        /// Pop from both queues and compare.
        Pop,
    }

    /// The two queues in lockstep.
    struct Pair {
        agenda: Agenda,
        heap: EventQueue<Event>,
        pending: [bool; 3],
        last_sleep: SimTime,
        pushes: u64,
    }

    impl Pair {
        fn new() -> Pair {
            Pair {
                agenda: Agenda::with_sleep_capacity(0),
                heap: EventQueue::new(),
                pending: [false; 3],
                last_sleep: SimTime::ZERO,
                pushes: 0,
            }
        }

        fn push(&mut self, kind: u8, at: SimTime) {
            let n = self.pushes;
            self.pushes += 1;
            let state = if n.is_multiple_of(3) {
                SleepState::Off
            } else {
                SleepState::Standby
            };
            let event = match kind % 4 {
                0 => Event::Arrival(n as usize),
                1 => Event::Decode,
                2 => Event::Wake(n),
                _ => Event::Sleep(n, state),
            };
            match event {
                Event::Arrival(i) => self.agenda.push_arrival(at, i),
                Event::Decode => self.agenda.push_decode(at),
                Event::Wake(epoch) => self.agenda.push_wake(at, epoch),
                Event::Sleep(epoch, state) => {
                    self.agenda.push_sleep(at, epoch, state);
                    self.last_sleep = self.last_sleep.max(at);
                }
            }
            if let Some(slot) = self.pending.get_mut(usize::from(kind % 4)) {
                *slot = true;
            }
            self.heap.push(at, event);
        }

        fn apply(&mut self, op: Op) {
            match op {
                Op::Push { kind, dt } => {
                    let single = usize::from(kind % 4);
                    if single < 3 && self.pending[single] {
                        return;
                    }
                    let at = self.agenda.now() + SimDuration::from_nanos(dt);
                    self.push(kind, at);
                }
                Op::SleepAfterLast { gap } => {
                    let at = self.last_sleep.max(self.agenda.now()) + SimDuration::from_nanos(gap);
                    self.push(3, at);
                }
                Op::Pop => {
                    self.pop();
                }
            }
            assert_eq!(self.agenda.now(), self.heap.now());
        }

        /// Pops both queues and compares; `false` once both are empty.
        fn pop(&mut self) -> bool {
            let a = self.agenda.pop().map(|kind| {
                let event = match kind {
                    Kind::Arrival => Event::Arrival(self.agenda.arrival()),
                    Kind::Decode => Event::Decode,
                    Kind::Wake => Event::Wake(self.agenda.wake_epoch()),
                    Kind::Sleep => {
                        let (epoch, state) = self.agenda.sleep();
                        Event::Sleep(epoch, state)
                    }
                };
                if let Some(slot) = self.pending.get_mut(kind as usize) {
                    *slot = false;
                }
                (self.agenda.now(), event)
            });
            let b = self.heap.pop().map(|s| (s.at, s.event));
            assert_eq!(a, b, "pop diverged");
            assert_eq!(self.agenda.now(), self.heap.now());
            a.is_some()
        }

        fn drain(&mut self) {
            while self.pop() {}
            assert_eq!(self.agenda.now(), self.heap.now(), "clock after drain");
        }
    }

    fn run_differential(ops: &[Op]) {
        let mut pair = Pair::new();
        for &op in ops {
            pair.apply(op);
        }
        pair.drain();
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            // A tiny dt range makes equal timestamps common, so the FIFO
            // tie-break carries real weight.
            3 => (0u8..4, 0u64..4).prop_map(|(kind, dt)| Op::Push { kind, dt }),
            2 => Just(Op::Pop),
        ]
    }

    fn sleep_heavy_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => (0u64..3).prop_map(|gap| Op::SleepAfterLast { gap }),
            // Out-of-order sleep commands: earlier than pending ones.
            2 => (0u64..40).prop_map(|dt| Op::Push { kind: 3, dt }),
            2 => (0u8..3, 0u64..40).prop_map(|(kind, dt)| Op::Push { kind, dt }),
            3 => Just(Op::Pop),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving of pushes of all four kinds (colliding
        /// timestamps, zero delays) and pops pops identically from the
        /// agenda and the heap reference.
        #[test]
        fn agenda_matches_heap_reference(ops in prop::collection::vec(op_strategy(), 1..200)) {
            run_differential(&ops);
        }

        /// Sleep-heavy streams: many pending commands at nondecreasing
        /// times with ties, out-of-order commands, the other kinds
        /// interleaved, and pops.
        #[test]
        fn sleep_heavy_streams_match_heap_reference(
            ops in prop::collection::vec(sleep_heavy_strategy(), 1..400),
        ) {
            run_differential(&ops);
        }
    }

    /// A thousand sleep commands at nondecreasing times, every fourth
    /// tied with its predecessor, popped while pushes still arrive: the
    /// deque grows long, appends at the back and pops from the front.
    #[test]
    fn long_sleep_runs_match_heap_reference() {
        let mut ops = Vec::new();
        for i in 0..1_000u64 {
            ops.push(Op::SleepAfterLast {
                gap: u64::from(i % 4 != 0),
            });
            if i % 3 == 0 {
                ops.push(Op::Pop);
            }
            if i % 97 == 0 {
                // An earlier command: a sorted insert ahead of the tail.
                ops.push(Op::Push { kind: 3, dt: 0 });
            }
        }
        run_differential(&ops);
    }

    #[test]
    fn pops_kinds_in_time_order_and_fifo_on_ties() {
        let mut a = Agenda::with_sleep_capacity(4);
        let t = SimTime::from_nanos;
        a.push_sleep(t(30), 1, SleepState::Off);
        a.push_wake(t(10), 7);
        a.push_arrival(t(10), 3);
        a.push_sleep(t(10), 2, SleepState::Standby);
        a.push_decode(t(20));
        assert_eq!(a.pop(), Some(Kind::Wake));
        assert_eq!((a.now(), a.wake_epoch()), (t(10), 7));
        assert_eq!(a.pop(), Some(Kind::Arrival));
        assert_eq!(a.arrival(), 3);
        assert_eq!(a.pop(), Some(Kind::Sleep));
        assert_eq!(a.sleep(), (2, SleepState::Standby));
        assert_eq!(a.pop(), Some(Kind::Decode));
        assert_eq!(a.now(), t(20));
        assert_eq!(a.pop(), Some(Kind::Sleep));
        assert_eq!(a.sleep(), (1, SleepState::Off));
        assert_eq!(a.pop(), None);
        assert_eq!(a.now(), t(30), "an empty pop leaves the clock");
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut a = Agenda::with_sleep_capacity(0);
        a.push_decode(SimTime::from_nanos(10));
        a.pop();
        a.push_sleep(SimTime::from_nanos(5), 0, SleepState::Standby);
    }

    #[test]
    #[should_panic(expected = "already pending")]
    fn a_second_pending_arrival_panics() {
        let mut a = Agenda::with_sleep_capacity(0);
        a.push_arrival(SimTime::from_nanos(10), 0);
        a.push_arrival(SimTime::from_nanos(20), 1);
    }

    #[test]
    fn preallocated_sleeps_do_not_grow() {
        let mut a = Agenda::with_sleep_capacity(16);
        let cap = a.sleeps.capacity();
        for i in 0..16 {
            a.push_sleep(SimTime::from_nanos(16 - i), i, SleepState::Standby);
        }
        assert_eq!(
            a.sleeps.capacity(),
            cap,
            "no growth within the preallocation"
        );
    }

    /// Heavier sweep for the nightly `--include-ignored` pass: long
    /// operation streams, seeded so a failure reproduces.
    #[test]
    #[ignore = "heavy differential sweep; covered nightly via --include-ignored"]
    fn agenda_matches_heap_reference_heavy() {
        for seed in 0..64u64 {
            let mut rng = SimRng::seed_from(0x1A9E_D1FF ^ seed);
            let ops: Vec<Op> = (0..5_000)
                .map(|_| {
                    let r = rng.next_u64();
                    match r % 7 {
                        0..=2 => Op::Push {
                            kind: ((r >> 8) % 4) as u8,
                            dt: (r >> 16) % 4,
                        },
                        3 => Op::SleepAfterLast { gap: (r >> 16) % 3 },
                        _ => Op::Pop,
                    }
                })
                .collect();
            run_differential(&ops);
        }
    }
}
