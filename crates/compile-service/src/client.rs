//! Blocking client for the compile service.

use crate::proto::{parse_response, ErrorClass, Request, ServiceError, StreamItem};
use autocfd_runtime_net::frame::{encode, read_frame, Frame, FrameKind};
use serde::json::Value;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};

/// One connection to a [`Service`](crate::Service). Requests are
/// synchronous: send, then return the response.
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

    /// Send `req` and block until its response. Returns the parsed
    /// `ok:true` response object; `ok:false` comes back as the server's
    /// typed [`ServiceError`]. The service streams nothing, so
    /// `_on_stream` is never called ([`StreamItem`] has no values).
    pub fn request(
        &mut self,
        req: &Request,
        _on_stream: &mut dyn FnMut(StreamItem),
    ) -> Result<Value, ServiceError> {
        let frame = Frame::from_text(FrameKind::Request, 0, &req.to_json());
        self.stream
            .write_all(&encode(&frame))
            .map_err(transport_err)?;
        let frame = read_frame(&mut self.stream)
            .map_err(transport_err)?
            .ok_or_else(|| transport_err("server closed the connection mid-request"))?
            .0;
        if frame.kind != FrameKind::Response {
            return Err(transport_err(format!(
                "unexpected {:?} frame mid-request",
                frame.kind
            )));
        }
        parse_response(&frame.text().map_err(transport_err)?)
    }
}
