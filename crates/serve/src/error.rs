//! The `/v1` error contract: every non-2xx response carries one JSON
//! envelope `{"code", "message", "trace"}`.
//!
//! * `code` — a stable machine-readable token from [`ApiCode`]; clients
//!   branch on it, never on `message`. The pipeline-facing codes map 1:1
//!   onto [`QorError`] variants (see [`ApiError::from`]), so a prediction
//!   failure keeps its type across the HTTP boundary.
//! * `message` — human-readable detail; free to change between versions.
//! * `trace` — the request's 16-hex-digit trace id (also echoed in the
//!   `x-qor-trace` header), so an error report can be joined against
//!   `GET /debug/requests` and server logs.
//!
//! [`ApiError`] values are `Clone` on purpose: the batcher computes one
//! result per *unique* design and distributes it to every request that
//! coalesced onto it, errors included.

use obs::Json;
use qor_core::QorError;

/// Stable machine-readable error codes of the `/v1` surface.
///
/// The first block is HTTP-layer; the second mirrors [`QorError`] 1:1;
/// the last three are serving-layer (registry/job lookups and internal
/// faults). Tokens are part of the API contract — never renamed, only
/// appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiCode {
    /// Malformed request (bad JSON, wrong field types, missing fields).
    BadRequest,
    /// No route matches the path.
    NotFound,
    /// The path exists but not for this method.
    MethodNotAllowed,
    /// Request head or body exceeded the configured bounds.
    PayloadTooLarge,
    /// HLS-C front-end rejected an inline source ([`QorError::Parse`]).
    Parse,
    /// IR lowering failed ([`QorError::Lower`]).
    Lower,
    /// Analytic evaluation failed ([`QorError::Eval`]).
    Eval,
    /// Named kernel is not bundled / `top` not in source
    /// ([`QorError::UnknownKernel`]).
    UnknownKernel,
    /// Checkpoint / job-snapshot I/O failed ([`QorError::Io`]).
    Io,
    /// Tensor or dataset shape mismatch ([`QorError::Shape`]).
    Shape,
    /// Checkpoint failed checksum or structural validation
    /// ([`QorError::Corrupt`]).
    Corrupt,
    /// Checkpoint written by a newer format
    /// ([`QorError::UnsupportedVersion`]).
    UnsupportedVersion,
    /// No model version with that name is registered.
    UnknownModel,
    /// No DSE job with that id exists.
    UnknownJob,
    /// The operation conflicts with serving state (e.g. removing the last
    /// model).
    Conflict,
    /// Unexpected serving-layer failure.
    Internal,
}

impl ApiCode {
    /// The wire token (`snake_case`, stable).
    pub fn token(self) -> &'static str {
        match self {
            ApiCode::BadRequest => "bad_request",
            ApiCode::NotFound => "not_found",
            ApiCode::MethodNotAllowed => "method_not_allowed",
            ApiCode::PayloadTooLarge => "payload_too_large",
            ApiCode::Parse => "parse",
            ApiCode::Lower => "lower",
            ApiCode::Eval => "eval",
            ApiCode::UnknownKernel => "unknown_kernel",
            ApiCode::Io => "io",
            ApiCode::Shape => "shape",
            ApiCode::Corrupt => "corrupt",
            ApiCode::UnsupportedVersion => "unsupported_version",
            ApiCode::UnknownModel => "unknown_model",
            ApiCode::UnknownJob => "unknown_job",
            ApiCode::Conflict => "conflict",
            ApiCode::Internal => "internal",
        }
    }

    /// The HTTP status this code maps to.
    pub fn status(self) -> u16 {
        match self {
            ApiCode::NotFound | ApiCode::UnknownJob | ApiCode::UnknownModel => 404,
            ApiCode::MethodNotAllowed => 405,
            ApiCode::PayloadTooLarge => 413,
            ApiCode::Conflict => 409,
            ApiCode::Internal | ApiCode::Io => 500,
            // pipeline rejections of client-supplied inputs are 4xx: the
            // request was understood but the payload cannot be served
            ApiCode::BadRequest
            | ApiCode::Parse
            | ApiCode::Lower
            | ApiCode::Eval
            | ApiCode::UnknownKernel
            | ApiCode::Shape
            | ApiCode::Corrupt
            | ApiCode::UnsupportedVersion => 400,
        }
    }

    /// The HTTP reason phrase for [`ApiCode::status`].
    pub fn reason(self) -> &'static str {
        match self.status() {
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            _ => "Internal Server Error",
        }
    }
}

/// One API-surface error: a stable code plus human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// Machine-readable classification.
    pub code: ApiCode,
    /// Human-readable detail (not part of the stable contract).
    pub message: String,
}

impl ApiError {
    /// An error with an explicit code and message.
    pub fn new(code: ApiCode, message: impl Into<String>) -> ApiError {
        ApiError {
            code,
            message: message.into(),
        }
    }

    /// Shorthand for the most common decode failure.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(ApiCode::BadRequest, message)
    }

    /// The HTTP status of this error.
    pub fn status(&self) -> u16 {
        self.code.status()
    }

    /// The `{"code","message","trace"}` envelope, stamping the *current*
    /// trace context (the server serializes errors on the request's
    /// thread, where the request trace is adopted).
    pub fn envelope(&self) -> Json {
        Json::obj(vec![
            ("code", Json::str(self.code.token())),
            ("message", Json::str(&self.message)),
            (
                "trace",
                Json::Str(format!("{:016x}", obs::trace::current_raw())),
            ),
        ])
    }

    /// [`ApiError::envelope`] as a serialized body.
    pub fn body(&self) -> String {
        self.envelope().to_string()
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.token(), self.message)
    }
}

impl std::error::Error for ApiError {}

impl From<QorError> for ApiError {
    /// The 1:1 mapping: every [`QorError`] variant keeps its identity as
    /// an [`ApiCode`]; the display string becomes the message.
    fn from(e: QorError) -> ApiError {
        let code = match &e {
            QorError::Parse(_) => ApiCode::Parse,
            QorError::Lower(_) => ApiCode::Lower,
            QorError::Eval(_) => ApiCode::Eval,
            QorError::UnknownKernel(_) => ApiCode::UnknownKernel,
            QorError::Io(_) => ApiCode::Io,
            QorError::Shape(_) => ApiCode::Shape,
            QorError::Corrupt(_) => ApiCode::Corrupt,
            QorError::UnsupportedVersion(_) => ApiCode::UnsupportedVersion,
        };
        ApiError::new(code, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qor_errors_map_one_to_one() {
        let cases: Vec<(QorError, ApiCode, u16)> = vec![
            (
                QorError::UnknownKernel("zed".into()),
                ApiCode::UnknownKernel,
                400,
            ),
            (QorError::Shape("dim".into()), ApiCode::Shape, 400),
            (QorError::Corrupt("crc".into()), ApiCode::Corrupt, 400),
            (
                QorError::UnsupportedVersion(99),
                ApiCode::UnsupportedVersion,
                400,
            ),
            (
                QorError::Io(std::io::Error::other("disk")),
                ApiCode::Io,
                500,
            ),
        ];
        for (qor, code, status) in cases {
            let api = ApiError::from(qor);
            assert_eq!(api.code, code);
            assert_eq!(api.status(), status);
        }
    }

    #[test]
    fn envelope_has_the_three_contract_fields() {
        let body = ApiError::new(ApiCode::UnknownModel, "no model \"x\"").body();
        let doc = crate::json::parse(&body).unwrap();
        assert_eq!(
            crate::json::field(&doc, "code").and_then(crate::json::as_str),
            Some("unknown_model")
        );
        assert!(crate::json::field(&doc, "message").is_some());
        let trace = crate::json::field(&doc, "trace")
            .and_then(crate::json::as_str)
            .unwrap();
        assert_eq!(trace.len(), 16, "trace must be 16 hex digits: {trace:?}");
    }

    #[test]
    fn envelope_stamps_the_adopted_trace() {
        let id = obs::trace::derive(&[b"api-error-test"]);
        let _g = obs::trace::adopt(id);
        let body = ApiError::bad_request("nope").body();
        assert!(body.contains(&id.as_hex()), "{body}");
    }

    #[test]
    fn statuses_and_reasons_are_consistent() {
        for code in [
            ApiCode::BadRequest,
            ApiCode::NotFound,
            ApiCode::MethodNotAllowed,
            ApiCode::PayloadTooLarge,
            ApiCode::UnknownModel,
            ApiCode::UnknownJob,
            ApiCode::Conflict,
            ApiCode::Internal,
        ] {
            assert!(!code.token().is_empty());
            assert!((400..=599).contains(&code.status()));
            assert!(!code.reason().is_empty());
        }
    }
}
