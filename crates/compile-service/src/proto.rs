//! The compile-service wire protocol.
//!
//! Requests and responses are single-line JSON documents carried as text
//! frames ([`FrameKind::Request`], [`FrameKind::Response`]) over the same
//! length-prefixed codec the SPMD mesh uses. One request yields exactly
//! one `Response` frame; requests on one connection are processed in
//! order, connections are served concurrently.
//!
//! [`FrameKind::Request`]: autocfd_runtime_net::frame::FrameKind::Request
//! [`FrameKind::Response`]: autocfd_runtime_net::frame::FrameKind::Response

use autocfd_codegen::EnginePref;
use serde::json::{self, Value};
use std::fmt;

/// Protocol version stamped into every request; the server rejects
/// mismatches as `bad_request` so both sides can evolve deliberately.
const PROTO_VERSION: i64 = 1;

/// What a client may ask the service to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Compile `source` (or find it in the cache) and return the plan.
    Compile(CompileReq),
    /// Report service metrics.
    Stats,
}

/// The inputs that identify one compile — exactly the [`PlanKey`]
/// material, so equal requests share a cache entry.
///
/// [`PlanKey`]: autocfd_codegen::PlanKey
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileReq {
    /// Sequential Fortran program text.
    pub source: String,
    /// Ranks along each partitioned grid axis.
    pub parts: Vec<usize>,
    /// Dependence-distance override; `None` defers to the source's
    /// `!$acf distance` directive (or the default of 1).
    pub distance: Option<usize>,
    /// Run redundant-sync elimination.
    pub optimize: bool,
    /// Compatibility shim, neither sent nor read: every request reads
    /// as [`EnginePref::Kernel`]. Removed with ROADMAP item 1's
    /// `[benchmark]` PR.
    #[doc(hidden)]
    pub engine: EnginePref,
    /// Worker threads per rank (≥ 1); omitted reads as 1.
    pub threads: u32,
}

/// A mid-request stream item. The service streams nothing, so this has
/// no values; [`Client::request`](crate::Client::request) keeps its
/// callback parameter for the callers written against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamItem {}

/// Why a request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The request itself was malformed (unknown type, missing field,
    /// protocol version mismatch).
    BadRequest,
    /// The submitted program failed to compile.
    Compile,
    /// Service-internal or transport failure.
    Internal,
}

impl ErrorClass {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorClass::BadRequest => "bad_request",
            ErrorClass::Compile => "compile",
            ErrorClass::Internal => "internal",
        }
    }

    /// Inverse of [`ErrorClass::name`]; unknown names read as internal.
    pub fn from_name(s: &str) -> ErrorClass {
        match s {
            "bad_request" => ErrorClass::BadRequest,
            "compile" => ErrorClass::Compile,
            _ => ErrorClass::Internal,
        }
    }
}

/// A typed protocol-level failure (also used by the client for
/// transport problems, reported as [`ErrorClass::Internal`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Failure class.
    pub class: ErrorClass,
    /// Human-readable description.
    pub message: String,
}

impl ServiceError {
    /// Build an error.
    pub fn new(class: ErrorClass, message: impl Into<String>) -> ServiceError {
        ServiceError {
            class,
            message: message.into(),
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.class.name(), self.message)
    }
}

impl std::error::Error for ServiceError {}

fn parts_value(parts: &[usize]) -> Value {
    Value::Arr(parts.iter().map(|&p| Value::Int(p as i128)).collect())
}

fn compile_fields(c: &CompileReq) -> Vec<(&'static str, Value)> {
    vec![
        ("source", Value::Str(c.source.clone())),
        ("parts", parts_value(&c.parts)),
        (
            "distance",
            match c.distance {
                Some(d) => Value::Int(d as i128),
                None => Value::Null,
            },
        ),
        ("optimize", Value::Bool(c.optimize)),
        ("threads", Value::Int(c.threads.into())),
    ]
}

impl Request {
    /// Render as the single-line JSON wire form.
    pub fn to_json(&self) -> String {
        let mut fields = vec![("proto", Value::Int(i128::from(PROTO_VERSION)))];
        match self {
            Request::Compile(c) => {
                fields.push(("type", Value::Str("compile".into())));
                fields.extend(compile_fields(c));
            }
            Request::Stats => fields.push(("type", Value::Str("stats".into()))),
        }
        Value::obj(fields).to_string()
    }

    /// Parse the wire form; malformed input is a `bad_request`.
    pub fn from_json(text: &str) -> Result<Request, ServiceError> {
        let bad = |m: String| ServiceError::new(ErrorClass::BadRequest, m);
        let v = json::parse(text).map_err(|e| bad(format!("request: {e}")))?;
        let proto = v
            .get("proto")
            .and_then(Value::as_int)
            .ok_or_else(|| bad("request: missing `proto`".into()))?;
        if proto != i128::from(PROTO_VERSION) {
            return Err(bad(format!(
                "request: protocol version {proto} (this server speaks {PROTO_VERSION})"
            )));
        }
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("request: missing `type`".into()))?;
        let compile = |v: &Value| -> Result<CompileReq, ServiceError> {
            let source = v
                .get("source")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("request: missing `source`".into()))?
                .to_string();
            let parts = v
                .get("parts")
                .and_then(Value::as_arr)
                .ok_or_else(|| bad("request: missing `parts`".into()))?
                .iter()
                .map(|p| {
                    p.as_int()
                        .filter(|&n| n > 0)
                        .map(|n| n as usize)
                        .ok_or_else(|| bad("request: `parts` must be positive integers".into()))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let distance = match v.get("distance") {
                Some(Value::Null) => None,
                Some(val) => Some(
                    val.as_int()
                        .filter(|&n| n >= 0)
                        .ok_or_else(|| bad("request: bad `distance`".into()))?
                        as usize,
                ),
                None => return Err(bad("request: missing `distance`".into())),
            };
            let optimize = match v.get("optimize") {
                Some(Value::Bool(b)) => *b,
                _ => return Err(bad("request: missing `optimize`".into())),
            };
            // `threads` arrived with proto-compatible lenient parsing:
            // absent reads as 1 so requests from older clients stay
            // valid. An `engine` key from such a client is ignored.
            let threads = match v.get("threads") {
                None | Some(Value::Null) => 1,
                Some(val) => val
                    .as_int()
                    .filter(|&n| n >= 1)
                    .map(|n| n as u32)
                    .ok_or_else(|| bad("request: `threads` must be a positive integer".into()))?,
            };
            Ok(CompileReq {
                source,
                parts,
                distance,
                optimize,
                engine: EnginePref::Kernel,
                threads,
            })
        };
        match ty {
            "compile" => Ok(Request::Compile(compile(&v)?)),
            "stats" => Ok(Request::Stats),
            other => Err(bad(format!("request: unknown type `{other}`"))),
        }
    }
}

/// Render a success response: `{"ok":true,...fields}`.
pub(crate) fn ok_response(fields: Vec<(&str, Value)>) -> String {
    let mut all = vec![("ok", Value::Bool(true))];
    all.extend(fields);
    Value::obj(all).to_string()
}

/// Render a failure response: `{"ok":false,"kind":...,"message":...}`.
pub(crate) fn err_response(err: &ServiceError) -> String {
    Value::obj(vec![
        ("ok", Value::Bool(false)),
        ("kind", Value::Str(err.class.name().into())),
        ("message", Value::Str(err.message.clone())),
    ])
    .to_string()
}

/// Parse a response body: `Ok(fields)` for `ok:true`, the typed error
/// for `ok:false`, `Internal` for anything unparseable.
pub(crate) fn parse_response(text: &str) -> Result<Value, ServiceError> {
    let v = json::parse(text)
        .map_err(|e| ServiceError::new(ErrorClass::Internal, format!("response: {e}")))?;
    match v.get("ok") {
        Some(Value::Bool(true)) => Ok(v),
        Some(Value::Bool(false)) => {
            let class = v
                .get("kind")
                .and_then(Value::as_str)
                .map(ErrorClass::from_name)
                .unwrap_or(ErrorClass::Internal);
            let message = v
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or("unspecified server error")
                .to_string();
            Err(ServiceError { class, message })
        }
        _ => Err(ServiceError::new(
            ErrorClass::Internal,
            "response: missing `ok`".to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> CompileReq {
        CompileReq {
            source: "program t\n  x = 1\nend\n".into(),
            parts: vec![2, 2],
            distance: Some(1),
            optimize: true,
            engine: EnginePref::Kernel,
            threads: 1,
        }
    }

    #[test]
    fn requests_roundtrip() {
        let threaded = CompileReq {
            threads: 4,
            ..req()
        };
        for r in [
            Request::Compile(req()),
            Request::Compile(threaded),
            Request::Stats,
        ] {
            assert_eq!(Request::from_json(&r.to_json()).unwrap(), r);
        }
    }

    #[test]
    fn engine_fields_default_when_absent() {
        // a pre-engine client's request (no `engine`/`threads` keys) and
        // an engine-selecting one both read as the one engine
        let text = "{\"proto\":1,\"type\":\"compile\",\"source\":\"x\",\
                    \"parts\":[2],\"distance\":null,\"optimize\":true}";
        let Request::Compile(c) = Request::from_json(text).unwrap() else {
            panic!("not a compile request");
        };
        assert_eq!(c.engine, EnginePref::Kernel);
        assert_eq!(c.threads, 1);
        let tree = text.replace("}", ",\"engine\":\"tree\"}");
        assert_eq!(Request::from_json(&tree).unwrap(), Request::Compile(c));
        // but a garbage thread count is rejected, not defaulted
        let bad = "{\"proto\":1,\"type\":\"compile\",\"source\":\"x\",\
                   \"parts\":[2],\"distance\":null,\"optimize\":true,\
                   \"threads\":0}";
        assert_eq!(
            Request::from_json(bad).unwrap_err().class,
            ErrorClass::BadRequest
        );
    }

    #[test]
    fn malformed_requests_are_bad_request_not_panics() {
        for text in [
            "",
            "{",
            "{\"proto\":1}",
            "{\"proto\":99,\"type\":\"stats\"}",
            "{\"proto\":1,\"type\":\"nope\"}",
            "{\"proto\":1,\"type\":\"compile\",\"source\":\"x\"}",
            "{\"proto\":1,\"type\":\"compile\",\"source\":\"x\",\"parts\":[0],\"distance\":1,\"optimize\":true}",
        ] {
            let err = Request::from_json(text).unwrap_err();
            assert_eq!(err.class, ErrorClass::BadRequest, "{text}");
        }
    }

    #[test]
    fn responses_roundtrip_ok_and_error() {
        let ok = ok_response(vec![("cache", Value::Str("hit".into()))]);
        let v = parse_response(&ok).unwrap();
        assert_eq!(v.get("cache").and_then(Value::as_str), Some("hit"));

        let err_text = err_response(&ServiceError::new(ErrorClass::Compile, "line 3: bad loop"));
        let err = parse_response(&err_text).unwrap_err();
        assert_eq!(err.class, ErrorClass::Compile);
        assert!(err.message.contains("bad loop"));
    }
}
