//! The two-process deployment of Fig. 2: the follower behind real IPC.
//!
//! In the original CASTANET, OPNET and the VHDL simulator are separate
//! UNIX processes; the interface process talks to the co-simulation entity
//! over standard IPC. This module reproduces that split:
//! [`RemoteFollower`] is a [`CoupledSimulator`] whose entire implementation
//! is a message protocol over any [`MessageTransport`], and
//! [`FollowerServer`] runs the *actual* follower (an RTL simulation, a
//! cycle engine, a board session) on the other end — another thread or
//! another process.
//!
//! ## Protocol
//!
//! All frames are ordinary [`Message`]s; control frames use the reserved
//! type [`CTRL_TYPE`] with the operation in `port` and the argument in a
//! `Control` payload:
//!
//! | frame | direction | meaning |
//! |---|---|---|
//! | data message | client → server | stimulus to deliver |
//! | `ADVANCE(horizon_ps)` | client → server | run until `horizon` (or first response) |
//! | data message | server → client | a response produced during the advance |
//! | `DONE(now_ps)` | server → client | the advance finished; follower time attached |
//! | `ERROR(code)` | server → client | the advance or a delivery failed |
//! | `SHUTDOWN(0)` | client → server | stop serving |

use crate::coupling::CoupledSimulator;
use crate::error::CastanetError;
use crate::ipc::MessageTransport;
use crate::message::{Message, MessagePayload, MessageTypeId};
use castanet_netsim::time::SimTime;

/// Reserved message type for protocol control frames.
pub const CTRL_TYPE: MessageTypeId = MessageTypeId(u32::MAX);

/// Control operations (carried in the `port` field of a control frame).
pub mod op {
    /// Client asks the server to advance to the horizon in the payload.
    pub const ADVANCE: usize = 1;
    /// Server reports an advance complete; payload carries its local time.
    pub const DONE: usize = 2;
    /// Server reports a failure; payload carries an error code.
    pub const ERROR: usize = 3;
    /// Client asks the server to stop serving.
    pub const SHUTDOWN: usize = 4;
}

fn ctrl(op_code: usize, value: u64) -> Message {
    Message {
        stamp: SimTime::ZERO,
        type_id: CTRL_TYPE,
        port: op_code,
        payload: MessagePayload::Control(value),
    }
}

/// The client side: a follower whose body lives across a transport.
pub struct RemoteFollower<T: MessageTransport> {
    transport: T,
    now: SimTime,
}

impl<T: MessageTransport> std::fmt::Debug for RemoteFollower<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteFollower")
            .field("now", &self.now)
            .finish()
    }
}

impl<T: MessageTransport> RemoteFollower<T> {
    /// Wraps a connected transport.
    #[must_use]
    pub fn new(transport: T) -> Self {
        RemoteFollower {
            transport,
            now: SimTime::ZERO,
        }
    }

    /// Asks the server to shut down and returns the transport.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn shutdown(mut self) -> Result<T, CastanetError> {
        self.transport.send(&ctrl(op::SHUTDOWN, 0))?;
        Ok(self.transport)
    }
}

impl<T: MessageTransport> CoupledSimulator for RemoteFollower<T> {
    fn deliver(&mut self, msg: Message) -> Result<(), CastanetError> {
        if msg.type_id == CTRL_TYPE {
            return Err(CastanetError::Codec(
                "stimulus must not use the reserved control type".to_string(),
            ));
        }
        self.transport.send(&msg)
    }

    fn advance_until(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        self.transport
            .send(&ctrl(op::ADVANCE, horizon.as_picos()))?;
        let mut responses = Vec::new();
        loop {
            let msg = self.transport.recv()?;
            if msg.type_id == CTRL_TYPE {
                match msg.port {
                    op::DONE => {
                        if let MessagePayload::Control(now_ps) = msg.payload {
                            self.now = SimTime::from_picos(now_ps);
                        }
                        return Ok(responses);
                    }
                    op::ERROR => {
                        return Err(CastanetError::Transport(format!(
                            "remote follower reported error frame {msg}"
                        )));
                    }
                    other => {
                        return Err(CastanetError::Codec(format!(
                            "unexpected control op {other} during advance"
                        )));
                    }
                }
            }
            responses.push(msg);
        }
    }

    fn now(&self) -> SimTime {
        self.now
    }
}

/// The server side: pumps protocol frames into a real follower.
pub struct FollowerServer<T: MessageTransport, S: CoupledSimulator> {
    transport: T,
    follower: S,
    advances: u64,
    deliveries: u64,
}

impl<T: MessageTransport, S: CoupledSimulator> std::fmt::Debug for FollowerServer<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FollowerServer")
            .field("advances", &self.advances)
            .field("deliveries", &self.deliveries)
            .finish()
    }
}

impl<T: MessageTransport, S: CoupledSimulator> FollowerServer<T, S> {
    /// Pairs a transport with the follower it serves.
    #[must_use]
    pub fn new(transport: T, follower: S) -> Self {
        FollowerServer {
            transport,
            follower,
            advances: 0,
            deliveries: 0,
        }
    }

    /// Serves until a shutdown frame (returning the follower) or a
    /// transport failure.
    ///
    /// # Errors
    ///
    /// Propagates transport failures; follower errors are reported to the
    /// client as `ERROR` frames and then returned here.
    pub fn serve(mut self) -> Result<S, CastanetError> {
        loop {
            let msg = self.transport.recv()?;
            if msg.type_id == CTRL_TYPE {
                match msg.port {
                    op::SHUTDOWN => return Ok(self.follower),
                    op::ADVANCE => {
                        let MessagePayload::Control(horizon_ps) = msg.payload else {
                            self.transport.send(&ctrl(op::ERROR, 1))?;
                            return Err(CastanetError::Codec(
                                "advance frame without horizon".to_string(),
                            ));
                        };
                        self.advances += 1;
                        match self.follower.advance_until(SimTime::from_picos(horizon_ps)) {
                            Ok(responses) => {
                                for r in responses {
                                    self.transport.send(&r)?;
                                }
                                self.transport
                                    .send(&ctrl(op::DONE, self.follower.now().as_picos()))?;
                            }
                            Err(e) => {
                                self.transport.send(&ctrl(op::ERROR, 2))?;
                                return Err(e);
                            }
                        }
                    }
                    other => {
                        self.transport.send(&ctrl(op::ERROR, 3))?;
                        return Err(CastanetError::Codec(format!(
                            "unexpected control op {other}"
                        )));
                    }
                }
            } else {
                self.deliveries += 1;
                if let Err(e) = self.follower.deliver(msg) {
                    self.transport.send(&ctrl(op::ERROR, 4))?;
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cyclecosim::{CycleCosim, EgressIndices, IngressIndices};
    use crate::ipc::{in_process_pair, UnixSocketTransport};
    use castanet_atm::addr::{HeaderFormat, VpiVci};
    use castanet_atm::cell::AtmCell;
    use castanet_netsim::time::SimDuration;
    use castanet_rtl::cycle::CycleSim;
    use castanet_rtl::dut::{AtmSwitchRtl, SwitchRtlConfig};

    fn local_follower() -> CycleCosim {
        let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
            ports: 2,
            fifo_capacity: 32,
            table_capacity: 8,
        });
        assert!(switch.install_route(1, 40, 1, 7, 70));
        let sim = CycleSim::new(Box::new(switch));
        let mut f = CycleCosim::new(
            sim,
            SimDuration::from_ns(20),
            MessageTypeId(1),
            HeaderFormat::Uni,
        );
        f.add_ingress(IngressIndices {
            data: 0,
            sync: 1,
            enable: 2,
        })
        .unwrap();
        f.add_egress(EgressIndices {
            data: 3,
            sync: 4,
            valid: 5,
        })
        .unwrap();
        f
    }

    fn cell(vci: u16) -> AtmCell {
        AtmCell::user_data(VpiVci::uni(1, vci).unwrap(), [9; 48])
    }

    #[test]
    fn remote_follower_over_in_process_channel() {
        let (client_t, server_t) = in_process_pair();
        let server = FollowerServer::new(server_t, local_follower());
        let handle = std::thread::spawn(move || server.serve());

        let mut remote = RemoteFollower::new(client_t);
        remote
            .deliver(Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell(40)))
            .unwrap();
        let responses = remote.advance_until(SimTime::from_us(10)).unwrap();
        assert_eq!(responses.len(), 1);
        assert_eq!(
            responses[0].as_cell().unwrap().id(),
            VpiVci::uni(7, 70).unwrap()
        );
        assert!(remote.now() > SimTime::ZERO);

        remote.shutdown().unwrap();
        let follower = handle.join().unwrap().unwrap();
        assert!(
            follower.clocks_evaluated() >= 100,
            "the server-side follower really ran the transfer (got {})",
            follower.clocks_evaluated()
        );
    }

    #[test]
    fn remote_follower_over_unix_sockets() {
        let (client_t, server_t) = UnixSocketTransport::pair().unwrap();
        let server = FollowerServer::new(server_t, local_follower());
        let handle = std::thread::spawn(move || server.serve());

        let mut remote = RemoteFollower::new(client_t);
        for k in 0..3u64 {
            remote
                .deliver(Message::cell(
                    SimTime::from_us(5 * k),
                    MessageTypeId(0),
                    0,
                    cell(40),
                ))
                .unwrap();
        }
        let mut all = Vec::new();
        loop {
            let r = remote.advance_until(SimTime::from_us(60)).unwrap();
            if r.is_empty() {
                break;
            }
            all.extend(r);
        }
        assert_eq!(all.len(), 3);
        remote.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn empty_advance_returns_done_with_time() {
        let (client_t, server_t) = in_process_pair();
        let server = FollowerServer::new(server_t, local_follower());
        let handle = std::thread::spawn(move || server.serve());
        let mut remote = RemoteFollower::new(client_t);
        let r = remote.advance_until(SimTime::from_us(100)).unwrap();
        assert!(r.is_empty());
        // Idle skip on the far side still reports advanced time.
        assert!(remote.now() >= SimTime::from_us(99));
        remote.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn control_type_is_rejected_as_stimulus() {
        let (client_t, _server_t) = in_process_pair();
        let mut remote = RemoteFollower::new(client_t);
        let bogus = Message {
            stamp: SimTime::ZERO,
            type_id: CTRL_TYPE,
            port: 0,
            payload: MessagePayload::TimeOnly,
        };
        assert!(matches!(
            remote.deliver(bogus),
            Err(CastanetError::Codec(_))
        ));
    }

    #[test]
    fn delivery_error_on_the_server_side_propagates() {
        let (client_t, server_t) = in_process_pair();
        let server = FollowerServer::new(server_t, local_follower());
        let handle = std::thread::spawn(move || server.serve());
        let mut remote = RemoteFollower::new(client_t);
        // Unknown port: the server's follower rejects the delivery; the
        // next advance surfaces the error frame.
        remote
            .deliver(Message::cell(SimTime::ZERO, MessageTypeId(0), 99, cell(40)))
            .unwrap();
        let err = remote.advance_until(SimTime::from_us(1)).unwrap_err();
        assert!(matches!(err, CastanetError::Transport(_)));
        // The server returned with the follower error.
        assert!(handle.join().unwrap().is_err());
    }
}
