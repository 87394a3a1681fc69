//! Blocking client for the compile service.

use crate::proto::{parse_response, ErrorClass, Request, ServiceError, StreamItem};
use autocfd_runtime_net::frame::{encode, read_frame, Frame, FrameKind};
use serde::json::Value;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};

/// One connection to an `acfd-compile` server. Requests are
/// synchronous: send, consume the stream, return the final response.
pub struct Client {
    stream: TcpStream,
}

fn transport_err(e: impl std::fmt::Display) -> ServiceError {
    ServiceError::new(ErrorClass::Internal, format!("server connection: {e}"))
}

impl Client {
    /// Connect to `addr` (e.g. `"127.0.0.1:7700"`).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServiceError> {
        let stream = TcpStream::connect(addr).map_err(transport_err)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream })
    }

    /// Send `req` and block until the terminating response, feeding
    /// every mid-request stream item to `on_stream` in arrival order.
    /// Returns the parsed `ok:true` response object; `ok:false` comes
    /// back as the server's typed [`ServiceError`].
    pub fn request(
        &mut self,
        req: &Request,
        on_stream: &mut dyn FnMut(StreamItem),
    ) -> Result<Value, ServiceError> {
        let frame = Frame::from_text(FrameKind::Request, 0, &req.to_json());
        self.stream
            .write_all(&encode(&frame))
            .map_err(transport_err)?;
        loop {
            let frame = match read_frame(&mut self.stream).map_err(transport_err)? {
                Some((frame, _)) => frame,
                None => {
                    return Err(transport_err("server closed the connection mid-request"));
                }
            };
            let text = frame.text().map_err(transport_err)?;
            match frame.kind {
                FrameKind::Stream => on_stream(StreamItem::from_json(&text)?),
                FrameKind::Response => return parse_response(&text),
                other => {
                    return Err(transport_err(format!(
                        "unexpected {other:?} frame mid-request"
                    )));
                }
            }
        }
    }
}
