//! The typed protocol-event taxonomy.
//!
//! Every event carries the *simulated* time it refers to (`t_ps`,
//! picoseconds — the unit every simulator in the workspace shares), the
//! *wall-clock* time it was recorded at (`wall_ns`, nanoseconds since the
//! telemetry handle was created) and, for span-like events, the wall-clock
//! duration the operation took. The split matters: simulated time orders
//! the protocol, wall time shows where the run actually spent its life —
//! the Chrome exporter lays events out on the wall-time axis so the
//! parallel executor's thread overlap and stalls are visually inspectable.

/// Which logical engine an event belongs to. The Chrome exporter renders
/// one track per value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Track {
    /// The network simulator — the engine whose clock runs ahead.
    Originator,
    /// The HDL simulator / test board — the engine whose clock lags.
    Follower,
}

impl Track {
    /// Stable lower-case label used by every exporter.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Track::Originator => "originator",
            Track::Follower => "follower",
        }
    }

    /// Chrome `trace_event` thread id of this track.
    #[must_use]
    pub fn tid(self) -> u32 {
        match self {
            Track::Originator => 1,
            Track::Follower => 2,
        }
    }
}

/// A named execution phase measured by a timing span (`Telemetry::span`
/// or the sampled micro-phase hooks). Phases are a closed taxonomy so the
/// JSONL schema stays strict: every phase name is a first-class event name
/// in [`EventKind::NAMES`], and the self-profiling report aggregates rows
/// per phase. A phase name changes only with
/// [`crate::schema::SCHEMA_VERSION`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Event kernel: draining the timing wheel for one time point.
    KernelPop,
    /// Event kernel: applying assignments and waking processes.
    KernelEval,
    /// Event kernel: delta-cycle spins after the first.
    KernelDelta,
    /// Event kernel: one granted-window sweep (`run_until`).
    KernelAdvance,
    /// Cycle follower: one lane's clock edge and moving its stimulus
    /// window on.
    CycleEval,
    /// Parallel executor: streaming grant windows to the follower.
    ParallelGrant,
    /// Parallel executor: barrier wait for in-flight window replies.
    ParallelWait,
    /// Parallel executor: end-of-run drain rendezvous.
    ParallelDrain,
    /// Sync protocol: re-stamping and injecting a deferred-response window.
    SyncDeferredWindow,
}

impl Phase {
    /// Every phase, in tag order (the order [`Phase::index`] counts in).
    pub const ALL: &'static [Phase] = &[
        Phase::KernelPop,
        Phase::KernelEval,
        Phase::KernelDelta,
        Phase::KernelAdvance,
        Phase::CycleEval,
        Phase::ParallelGrant,
        Phase::ParallelWait,
        Phase::ParallelDrain,
        Phase::SyncDeferredWindow,
    ];

    /// Stable dotted phase name — doubles as the span event's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::KernelPop => "kernel.pop",
            Phase::KernelEval => "kernel.eval",
            Phase::KernelDelta => "kernel.delta",
            Phase::KernelAdvance => "kernel.advance",
            Phase::CycleEval => "cycle.eval",
            Phase::ParallelGrant => "parallel.grant",
            Phase::ParallelWait => "parallel.wait",
            Phase::ParallelDrain => "parallel.drain",
            Phase::SyncDeferredWindow => "sync.deferred_window",
        }
    }

    /// `true` for per-step micro-phases too hot to trace unconditionally:
    /// they are recorded once per [`crate::telemetry::MICRO_SAMPLE_STRIDE`]
    /// occurrences and the profile report extrapolates their totals.
    #[must_use]
    pub fn is_micro(self) -> bool {
        matches!(
            self,
            Phase::KernelPop
                | Phase::KernelEval
                | Phase::KernelDelta
                | Phase::CycleEval
                | Phase::SyncDeferredWindow
        )
    }

    /// Position of this phase inside [`Phase::ALL`] (the codec tag).
    #[must_use]
    pub fn index(self) -> usize {
        Phase::ALL.iter().position(|&p| p == self).expect("in ALL")
    }
}

/// What happened. Field units: `*_ps` are simulated picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The originator executed a batch of network events (span).
    NetWindow {
        /// Network events executed inside the window.
        events: u64,
    },
    /// A timing-window grant (the time-stamped null message of §3.1) was
    /// issued to the follower.
    WindowGranted {
        /// The grant horizon (exclusive).
        grant_ps: u64,
        /// Stimulus messages shipped with the grant.
        msgs: u64,
    },
    /// A stimulus message of type `j` was received by the synchronizer
    /// (the paper's input queue `I_j`; the follower consumes it at once).
    StimulusEnqueued {
        /// The message type `j`.
        type_id: u32,
        /// The co-simulation port addressed.
        port: u32,
        /// The originator stamp carried by the message.
        stamp_ps: u64,
    },
    /// A δ_j-delayed follower response was injected into the network model.
    ResponseInjected {
        /// The follower's stamp on the response.
        stamp_ps: u64,
        /// The network time it was injected at.
        at_ps: u64,
        /// The co-simulation port it returned on.
        port: u32,
    },
    /// A response arrived behind the network clock under the *serial*
    /// executor — a feedforward-assumption violation (see
    /// `CouplingStats::late_responses`).
    LateResponse {
        /// The follower's stamp on the response.
        stamp_ps: u64,
        /// The network clock when it surfaced.
        net_ps: u64,
    },
    /// A response arrived behind the network clock because the originator
    /// pipelined ahead (expected under the parallel executor; see
    /// `CouplingStats::deferred_responses`).
    DeferredResponse {
        /// The follower's stamp on the response.
        stamp_ps: u64,
        /// The network clock when it surfaced.
        net_ps: u64,
    },
    /// The follower swept one granted window (span).
    FollowerAdvance {
        /// The grant horizon swept to.
        granted_ps: u64,
        /// Responses the sweep produced.
        responses: u64,
    },
    /// One chunk of the end-of-run drain phase (span).
    DrainChunk {
        /// The horizon the chunk advanced to.
        horizon_ps: u64,
        /// Responses the chunk surfaced.
        responses: u64,
    },
    /// The originator blocked on the bounded command channel — the
    /// follower is the bottleneck (span over the blocked send).
    BackpressureStall {
        /// Windows still in flight when the stall ended, after the
        /// reply that freed a pipeline slot was absorbed.
        in_flight: u64,
    },
    /// The optimistic synchronizer rolled back to an earlier state.
    Rollback {
        /// The restored simulated time.
        to_ps: u64,
        /// Events replayed because of the rollback.
        replayed: u64,
    },
    /// A timing span over a named execution [`Phase`] — the raw material
    /// of the self-profiling report. The event name *is* the phase name.
    PhaseSpan {
        /// The phase measured.
        phase: Phase,
        /// Nesting depth at which the span was opened (0 = outermost).
        depth: u32,
    },
}

impl EventKind {
    /// Stable snake_case event name used by every exporter and the JSONL
    /// schema. Renaming one breaks recorded traces; phase names change only
    /// with [`crate::schema::SCHEMA_VERSION`].
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::NetWindow { .. } => "net_window",
            EventKind::WindowGranted { .. } => "window_granted",
            EventKind::StimulusEnqueued { .. } => "stimulus_enqueued",
            EventKind::ResponseInjected { .. } => "response_injected",
            EventKind::LateResponse { .. } => "late_response",
            EventKind::DeferredResponse { .. } => "deferred_response",
            EventKind::FollowerAdvance { .. } => "follower_advance",
            EventKind::DrainChunk { .. } => "drain_chunk",
            EventKind::BackpressureStall { .. } => "backpressure_stall",
            EventKind::Rollback { .. } => "rollback",
            EventKind::PhaseSpan { phase, .. } => phase.name(),
        }
    }

    /// Every event name the taxonomy defines, for schema validation: the
    /// ten protocol kinds plus one name per [`Phase`].
    pub const NAMES: &'static [&'static str] = &[
        "net_window",
        "window_granted",
        "stimulus_enqueued",
        "response_injected",
        "late_response",
        "deferred_response",
        "follower_advance",
        "drain_chunk",
        "backpressure_stall",
        "rollback",
        "kernel.pop",
        "kernel.eval",
        "kernel.delta",
        "kernel.advance",
        "cycle.eval",
        "parallel.grant",
        "parallel.wait",
        "parallel.drain",
        "sync.deferred_window",
    ];

    /// The kind-specific payload as `(key, value)` pairs, in a stable
    /// order. Exporters render these as the event's `args`.
    #[must_use]
    pub fn args(&self) -> Vec<(&'static str, u64)> {
        match *self {
            EventKind::NetWindow { events } => vec![("events", events)],
            EventKind::WindowGranted { grant_ps, msgs } => {
                vec![("grant_ps", grant_ps), ("msgs", msgs)]
            }
            EventKind::StimulusEnqueued {
                type_id,
                port,
                stamp_ps,
            } => vec![
                ("type_id", u64::from(type_id)),
                ("port", u64::from(port)),
                ("stamp_ps", stamp_ps),
            ],
            EventKind::ResponseInjected {
                stamp_ps,
                at_ps,
                port,
            } => vec![
                ("stamp_ps", stamp_ps),
                ("at_ps", at_ps),
                ("port", u64::from(port)),
            ],
            EventKind::LateResponse { stamp_ps, net_ps }
            | EventKind::DeferredResponse { stamp_ps, net_ps } => {
                vec![("stamp_ps", stamp_ps), ("net_ps", net_ps)]
            }
            EventKind::FollowerAdvance {
                granted_ps,
                responses,
            } => vec![("granted_ps", granted_ps), ("responses", responses)],
            EventKind::DrainChunk {
                horizon_ps,
                responses,
            } => vec![("horizon_ps", horizon_ps), ("responses", responses)],
            EventKind::BackpressureStall { in_flight } => vec![("in_flight", in_flight)],
            EventKind::Rollback { to_ps, replayed } => {
                vec![("to_ps", to_ps), ("replayed", replayed)]
            }
            EventKind::PhaseSpan { depth, .. } => vec![("depth", u64::from(depth))],
        }
    }

    /// `true` for events that describe an operation with a wall-clock
    /// extent (rendered as Chrome "complete" events), `false` for
    /// instantaneous protocol points.
    #[must_use]
    pub fn is_span(&self) -> bool {
        matches!(
            self,
            EventKind::NetWindow { .. }
                | EventKind::FollowerAdvance { .. }
                | EventKind::DrainChunk { .. }
                | EventKind::BackpressureStall { .. }
                | EventKind::PhaseSpan { .. }
        )
    }
}

/// One recorded telemetry event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time the event refers to, in picoseconds.
    pub t_ps: u64,
    /// Wall-clock nanoseconds since the telemetry handle was created,
    /// taken when the event (or, for spans, the operation) *ended*.
    pub wall_ns: u64,
    /// Wall-clock duration of the operation for span events; 0 for
    /// instantaneous events.
    pub dur_ns: u64,
    /// The engine the event belongs to.
    pub track: Track,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Wall-clock nanoseconds the event (or the operation it spans)
    /// started at.
    #[must_use]
    pub fn start_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.dur_ns)
    }
}

/// Fixed-width payload of the word codec: one meta word (kind tag, track,
/// phase, depth) + `t_ps` + `wall_ns` + `dur_ns` + three argument words.
pub(crate) const PAYLOAD_WORDS: usize = 7;

/// Bit layout of the meta word.
const TAG_SHIFT: u64 = 0;
const TRACK_SHIFT: u64 = 8;
const PHASE_SHIFT: u64 = 16;
const DEPTH_SHIFT: u64 = 32;
const BYTE: u64 = 0xff;

/// Codec tag of the `PhaseSpan` kind (protocol kinds use `0..=9`).
const TAG_PHASE_SPAN: u64 = 10;

impl TraceEvent {
    /// Encodes the event into the fixed word layout the sharded ring
    /// stores. Every kind fits: no kind carries more than three argument
    /// values, and `PhaseSpan`'s phase/depth pack into the meta word.
    pub(crate) fn to_words(self) -> [u64; PAYLOAD_WORDS] {
        let (tag, a): (u64, [u64; 3]) = match self.kind {
            EventKind::NetWindow { events } => (0, [events, 0, 0]),
            EventKind::WindowGranted { grant_ps, msgs } => (1, [grant_ps, msgs, 0]),
            EventKind::StimulusEnqueued {
                type_id,
                port,
                stamp_ps,
            } => (2, [u64::from(type_id), u64::from(port), stamp_ps]),
            EventKind::ResponseInjected {
                stamp_ps,
                at_ps,
                port,
            } => (3, [stamp_ps, at_ps, u64::from(port)]),
            EventKind::LateResponse { stamp_ps, net_ps } => (4, [stamp_ps, net_ps, 0]),
            EventKind::DeferredResponse { stamp_ps, net_ps } => (5, [stamp_ps, net_ps, 0]),
            EventKind::FollowerAdvance {
                granted_ps,
                responses,
            } => (6, [granted_ps, responses, 0]),
            EventKind::DrainChunk {
                horizon_ps,
                responses,
            } => (7, [horizon_ps, responses, 0]),
            EventKind::BackpressureStall { in_flight } => (8, [in_flight, 0, 0]),
            EventKind::Rollback { to_ps, replayed } => (9, [to_ps, replayed, 0]),
            EventKind::PhaseSpan { .. } => (TAG_PHASE_SPAN, [0, 0, 0]),
        };
        let mut meta = tag << TAG_SHIFT;
        meta |= u64::from(matches!(self.track, Track::Follower)) << TRACK_SHIFT;
        if let EventKind::PhaseSpan { phase, depth } = self.kind {
            meta |= (phase.index() as u64) << PHASE_SHIFT;
            meta |= u64::from(depth) << DEPTH_SHIFT;
        }
        [meta, self.t_ps, self.wall_ns, self.dur_ns, a[0], a[1], a[2]]
    }

    /// Decodes a word-layout payload; `None` on an unknown tag (a torn or
    /// never-written slot the ring reader skips).
    pub(crate) fn from_words(w: &[u64; PAYLOAD_WORDS]) -> Option<TraceEvent> {
        let [meta, t_ps, wall_ns, dur_ns, a0, a1, a2] = *w;
        let track = if meta >> TRACK_SHIFT & 1 == 1 {
            Track::Follower
        } else {
            Track::Originator
        };
        let narrow = |v: u64| u32::try_from(v).ok();
        let kind = match meta >> TAG_SHIFT & BYTE {
            0 => EventKind::NetWindow { events: a0 },
            1 => EventKind::WindowGranted {
                grant_ps: a0,
                msgs: a1,
            },
            2 => EventKind::StimulusEnqueued {
                type_id: narrow(a0)?,
                port: narrow(a1)?,
                stamp_ps: a2,
            },
            3 => EventKind::ResponseInjected {
                stamp_ps: a0,
                at_ps: a1,
                port: narrow(a2)?,
            },
            4 => EventKind::LateResponse {
                stamp_ps: a0,
                net_ps: a1,
            },
            5 => EventKind::DeferredResponse {
                stamp_ps: a0,
                net_ps: a1,
            },
            6 => EventKind::FollowerAdvance {
                granted_ps: a0,
                responses: a1,
            },
            7 => EventKind::DrainChunk {
                horizon_ps: a0,
                responses: a1,
            },
            8 => EventKind::BackpressureStall { in_flight: a0 },
            9 => EventKind::Rollback {
                to_ps: a0,
                replayed: a1,
            },
            TAG_PHASE_SPAN => EventKind::PhaseSpan {
                phase: *Phase::ALL.get((meta >> PHASE_SHIFT & BYTE) as usize)?,
                depth: narrow(meta >> DEPTH_SHIFT)?,
            },
            _ => return None,
        };
        Some(TraceEvent {
            t_ps,
            wall_ns,
            dur_ns,
            track,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_of_each() -> Vec<EventKind> {
        let mut kinds = vec![
            EventKind::NetWindow { events: 3 },
            EventKind::WindowGranted {
                grant_ps: 10,
                msgs: 2,
            },
            EventKind::StimulusEnqueued {
                type_id: 0,
                port: 1,
                stamp_ps: 5,
            },
            EventKind::ResponseInjected {
                stamp_ps: 7,
                at_ps: 8,
                port: 1,
            },
            EventKind::LateResponse {
                stamp_ps: 1,
                net_ps: 2,
            },
            EventKind::DeferredResponse {
                stamp_ps: 1,
                net_ps: 2,
            },
            EventKind::FollowerAdvance {
                granted_ps: 9,
                responses: 1,
            },
            EventKind::DrainChunk {
                horizon_ps: 11,
                responses: 0,
            },
            EventKind::BackpressureStall { in_flight: 4 },
            EventKind::Rollback {
                to_ps: 3,
                replayed: 6,
            },
        ];
        kinds.extend(
            Phase::ALL
                .iter()
                .map(|&phase| EventKind::PhaseSpan { phase, depth: 1 }),
        );
        kinds
    }

    #[test]
    fn every_kind_has_a_registered_name() {
        for kind in one_of_each() {
            assert!(
                EventKind::NAMES.contains(&kind.name()),
                "{} missing from NAMES",
                kind.name()
            );
        }
        assert_eq!(
            EventKind::NAMES.len(),
            one_of_each().len(),
            "NAMES and the enum drifted apart"
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = EventKind::NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::NAMES.len());
    }

    #[test]
    fn args_are_nonempty_and_stable() {
        for kind in one_of_each() {
            assert!(!kind.args().is_empty(), "{}", kind.name());
        }
        let k = EventKind::WindowGranted {
            grant_ps: 42,
            msgs: 7,
        };
        assert_eq!(k.args(), vec![("grant_ps", 42), ("msgs", 7)]);
    }

    #[test]
    fn span_classification() {
        assert!(EventKind::NetWindow { events: 0 }.is_span());
        assert!(!EventKind::WindowGranted {
            grant_ps: 0,
            msgs: 0
        }
        .is_span());
    }

    #[test]
    fn phase_names_are_registered_and_micro_flagged() {
        for &phase in Phase::ALL {
            assert!(
                EventKind::NAMES.contains(&phase.name()),
                "{} missing from NAMES",
                phase.name()
            );
            assert_eq!(Phase::ALL[phase.index()], phase);
        }
        assert!(Phase::KernelPop.is_micro());
        assert!(!Phase::ParallelGrant.is_micro());
        assert!(EventKind::PhaseSpan {
            phase: Phase::KernelAdvance,
            depth: 0
        }
        .is_span());
        assert_eq!(
            EventKind::PhaseSpan {
                phase: Phase::KernelAdvance,
                depth: 0
            }
            .name(),
            "kernel.advance"
        );
    }

    #[test]
    fn word_codec_round_trips_every_kind() {
        for (i, kind) in one_of_each().into_iter().enumerate() {
            for track in [Track::Originator, Track::Follower] {
                let ev = TraceEvent {
                    t_ps: 1000 + i as u64,
                    wall_ns: 2000 + i as u64,
                    dur_ns: i as u64,
                    track,
                    kind,
                };
                let back = TraceEvent::from_words(&ev.to_words()).expect("decodable");
                assert_eq!(back, ev, "{} did not round-trip", kind.name());
            }
        }
        assert_eq!(TraceEvent::from_words(&[0xff, 0, 0, 0, 0, 0, 0]), None);
    }

    #[test]
    fn start_ns_saturates() {
        let ev = TraceEvent {
            t_ps: 0,
            wall_ns: 5,
            dur_ns: 9,
            track: Track::Originator,
            kind: EventKind::NetWindow { events: 0 },
        };
        assert_eq!(ev.start_ns(), 0);
    }
}
