//! Machine-readable run manifests.
//!
//! Every `bgpsim` CLI run writes a `run_manifest.json` — the full
//! configuration, per-figure wall time and telemetry counters, and the
//! crate version — so any figure in `out/` can be traced back to the
//! exact run that produced it.
//!
//! The workspace has no `serde` (offline builds have no derive
//! machinery), so this module carries its own minimal JSON value
//! type: [`Json`] covers exactly what manifests and the `bgpsim-server`
//! wire format need, with RFC 8259 string escaping and deterministic
//! (insertion-order) object keys. [`Json::parse`] is the matching
//! recursive-descent reader, so the type is bidirectional:
//! `parse(render(j)) == j` for every value whose numbers are finite (the
//! `manifest_roundtrip` proptest pins this). A parsed document is *read*
//! through the strict accessors ([`Json::get`], [`Json::as_u64`], …): the
//! one place the workspace decides what an object lookup is and when a
//! number is an integer.

use std::fmt::Write as _;

use bgpsim_hijack::TelemetrySnapshot;
use bgpsim_stream::StreamSummary;

/// Manifest schema version; bump on any breaking layout change and
/// document the migration in DESIGN.md.
pub const SCHEMA_VERSION: u64 = 1;

/// A JSON value. Objects preserve insertion order so rendered manifests
/// are deterministic and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (rendered without a fraction when integral).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Where and why [`Json::parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the rejection in the input.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Nesting depth [`Json::parse`] accepts before rejecting the document.
/// Bounds recursion on untrusted request bodies; manifests nest 4 deep.
const MAX_PARSE_DEPTH: u32 = 128;

/// 2^53: the largest integer [`Json::as_u64`] reads and the cutoff below
/// which [`write_number`] renders integrals without a fraction.
const MAX_SAFE_INTEGER: f64 = 9.007_199_254_740_992e15;

impl Json {
    /// An object from ordered pairs.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str<S: Into<String>>(s: S) -> Json {
        Json::Str(s.into())
    }

    /// An array of integers — ASNs, pollution counts (the writer
    /// counterpart of [`Json::as_u32_array`]).
    pub fn u32s(values: &[u32]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::from(v)).collect())
    }

    /// The value under `key` when this is an object that has one (the
    /// first, should a hostile document repeat the key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as an integer: a number that is integral, non-negative
    /// and at most 2^53 (the largest range in which every integer is an
    /// exact double). Anything else — a fraction, a negative, a string
    /// that looks like a number — is `None`, never a nearby integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && (0.0..=MAX_SAFE_INTEGER).contains(n) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// [`Json::as_u64`], additionally in `u32` range (an ASN, a count).
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|n| u32::try_from(n).ok())
    }

    /// This value's text, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value, when it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value's items, when it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// This value as a list of `u32`s: an array whose every item passes
    /// [`Json::as_u32`]. One bad item rejects the whole list.
    pub fn as_u32_array(&self) -> Option<Vec<u32>> {
        self.as_array()?.iter().map(Json::as_u32).collect()
    }

    /// Parses an RFC 8259 JSON document (the inverse of [`Json::render`]
    /// / [`Json::render_compact`]).
    ///
    /// Accepts exactly one top-level value surrounded by optional
    /// whitespace; trailing bytes are an error. All escape forms are
    /// honored (`\" \\ \/ \b \f \n \r \t` and `\uXXXX` including
    /// surrogate pairs), duplicate object keys are kept in order (this
    /// type models objects as ordered pairs), and nesting is capped at
    /// 128 levels (`MAX_PARSE_DEPTH`) so a hostile request body cannot
    /// overflow the stack.
    ///
    /// Round-trip contract: `parse(render(j)) == j` whenever every number
    /// in `j` is finite. Non-finite numbers render as `null` (see
    /// [`Json::render`] on `write_number`), so they round-trip to
    /// [`Json::Null`] — the one deliberate lossy corner.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] with the byte offset of the first
    /// violation (syntax error, unterminated string, bad escape, lone
    /// surrogate, non-finite number token, depth overflow, or trailing
    /// content).
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing content after the JSON value"));
        }
        Ok(value)
    }

    /// Renders as pretty-printed JSON (two-space indent, trailing
    /// newline) — the layout `run_manifest.json` is committed in.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders on one line (for appending records to a JSON-array file).
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            _ => self.write_compact(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// Recursive-descent state for [`Json::parse`]: a byte cursor over the
/// input (string content is re-validated as UTF-8 only where escapes
/// force re-assembly).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `lit` (used for `null` / `true` / `false` after their
    /// first byte identified the token).
    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {lit:?}")))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, JsonParseError> {
        if depth > MAX_PARSE_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_PARSE_DEPTH}")));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(format!("unexpected byte {:?}", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, JsonParseError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, JsonParseError> {
        self.pos += 1; // consume '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.error("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            pairs.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.pos += 1; // consume opening '"'
        let mut out = String::new();
        let start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            self.pos -= 1;
                            return Err(self.error(format!("invalid escape '\\{}'", other as char)));
                        }
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.error("unescaped control character in string"));
                }
                Some(_) => {
                    // Copy a maximal escape-free run in one slice append.
                    let run_start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20)
                    {
                        self.pos += 1;
                    }
                    let run =
                        std::str::from_utf8(&self.bytes[run_start..self.pos]).map_err(|_| {
                            JsonParseError {
                                offset: start,
                                message: "invalid UTF-8 in string".into(),
                            }
                        })?;
                    out.push_str(run);
                }
            }
        }
    }

    /// The four hex digits after `\u`, combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonParseError> {
        let first = self.hex4()?;
        let code = match first {
            // High surrogate: a low surrogate escape must follow.
            0xD800..=0xDBFF => {
                if self.bytes[self.pos..].starts_with(b"\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&low) {
                        return Err(self.error("high surrogate not followed by low surrogate"));
                    }
                    0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    return Err(self.error("lone high surrogate"));
                }
            }
            0xDC00..=0xDFFF => return Err(self.error("lone low surrogate")),
            c => c,
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let code = u32::from_str_radix(digits, 16)
            .map_err(|_| self.error("non-hex digits in \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        // Validate the RFC 8259 grammar cursor-wise, then let the std
        // float parser produce the value from the validated span.
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.error("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit after '.'"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit in exponent"));
            }
            self.digits();
        }
        let span = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII span");
        let n: f64 = span.parse().map_err(|_| JsonParseError {
            offset: start,
            message: format!("unparseable number {span:?}"),
        })?;
        // The grammar admits tokens that overflow f64 to infinity
        // (e.g. 1e999); [`write_number`] could not re-render them.
        if !n.is_finite() {
            return Err(JsonParseError {
                offset: start,
                message: format!("number {span:?} overflows f64"),
            });
        }
        Ok(Json::Num(n))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Renders one number. Decided behavior for non-finite values: they
/// render as `null`, because JSON has no NaN/Infinity literal and a
/// manifest or wire response must stay machine-parseable even if a
/// counter ratio degenerates. Consequently render→parse maps non-finite
/// numbers to [`Json::Null`]; every finite number round-trips exactly
/// (integral values take the `i64` path, the rest rely on Rust's
/// shortest-roundtrip `{}` formatting).
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf
    } else if n.fract() == 0.0 && n.abs() < MAX_SAFE_INTEGER {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(v as f64)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// One figure's record inside a [`RunManifest`].
#[derive(Debug, Clone)]
pub struct FigureRecord {
    /// Figure id (`fig1` … `fig7`, `sec7`, `model`).
    pub id: String,
    /// Wall time spent producing the figure, in milliseconds.
    pub wall_ms: f64,
    /// Artifact filenames written into the output directory.
    pub artifacts: Vec<String>,
    /// Sweep telemetry, when the figure runs monitored sweeps.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl FigureRecord {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("id".to_string(), Json::str(&self.id)),
            ("wall_ms".to_string(), Json::Num(self.wall_ms)),
            (
                "artifacts".to_string(),
                Json::Arr(self.artifacts.iter().map(Json::str).collect()),
            ),
        ];
        pairs.push((
            "telemetry".to_string(),
            match &self.telemetry {
                Some(snapshot) => telemetry_json(snapshot),
                None => Json::Null,
            },
        ));
        Json::Obj(pairs)
    }
}

/// Renders a [`TelemetrySnapshot`] as the manifest's `telemetry` object.
/// The wall-time histogram drops trailing zero buckets to stay compact.
#[must_use]
pub fn telemetry_json(snapshot: &TelemetrySnapshot) -> Json {
    let engine = &snapshot.engine;
    let mut hist: Vec<Json> = snapshot.wall_hist.iter().map(|&c| Json::from(c)).collect();
    while hist.len() > 1 && hist.last() == Some(&Json::Num(0.0)) {
        hist.pop();
    }
    Json::obj([
        (
            "engine",
            Json::obj([
                ("runs", Json::from(engine.runs)),
                ("messages", Json::from(engine.messages)),
                ("accepted", Json::from(engine.accepted)),
                ("loop_rejected", Json::from(engine.loop_rejected)),
                ("filter_rejected", Json::from(engine.filter_rejected)),
                ("stub_rejected", Json::from(engine.stub_rejected)),
                ("withdrawals", Json::from(engine.withdrawals)),
                ("generations_total", Json::from(engine.generations_total)),
                ("max_generations", Json::from(engine.max_generations)),
                ("truncated_runs", Json::from(engine.truncated_runs)),
            ]),
        ),
        (
            "scratch_dispatches",
            Json::from(snapshot.scratch_dispatches),
        ),
        ("race_dispatches", Json::from(snapshot.race_dispatches)),
        ("race_wall_us", Json::from(snapshot.race_wall_us)),
        ("delta_dispatches", Json::from(snapshot.delta_dispatches)),
        ("baselines_built", Json::from(snapshot.baselines_built)),
        ("baseline_bytes", Json::from(snapshot.baseline_bytes)),
        (
            "baseline_bytes_peak",
            Json::from(snapshot.baseline_bytes_peak),
        ),
        ("attacks", Json::from(snapshot.attacks)),
        ("skipped", Json::from(snapshot.skipped)),
        ("cone_sum", Json::from(snapshot.cone_sum)),
        ("cone_max", Json::from(snapshot.cone_max)),
        ("replays_abandoned", Json::from(snapshot.replays_abandoned)),
        ("wall_hist_us_log2", Json::Arr(hist)),
    ])
}

/// Renders a [`StreamSummary`] as the five-key object that job records,
/// `GET /v1/results/:id` and `stream_manifest.json` all carry. Latencies
/// render as `null` when nothing was detected: "no hijack was ever
/// detected" must stay distinguishable from "detected instantly".
#[must_use]
pub fn stream_summary_json(summary: &StreamSummary) -> Json {
    Json::obj([
        ("events", Json::from(summary.events)),
        ("injected", Json::from(summary.injected)),
        ("detected", Json::from(summary.detected)),
        (
            "mean_latency_events",
            summary.mean_latency.map_or(Json::Null, Json::Num),
        ),
        (
            "max_latency_events",
            summary.max_latency.map_or(Json::Null, Json::from),
        ),
    ])
}

/// Reads back what [`stream_summary_json`] wrote (`--state-dir` restore);
/// `None` when a key is missing or mistyped. A `null` latency reads as
/// `None`, never as zero.
#[must_use]
pub fn stream_summary_from_json(json: &Json) -> Option<StreamSummary> {
    let count = |key: &str| usize::try_from(json.get(key)?.as_u64()?).ok();
    Some(StreamSummary {
        events: count("events")?,
        injected: count("injected")?,
        detected: count("detected")?,
        mean_latency: match json.get("mean_latency_events")? {
            Json::Null => None,
            Json::Num(n) => Some(*n),
            _ => return None,
        },
        max_latency: match json.get("max_latency_events")? {
            Json::Null => None,
            value => Some(value.as_u64()?),
        },
    })
}

/// The full record of one `bgpsim` run (see DESIGN.md for the schema).
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Crate version that produced the run (`CARGO_PKG_VERSION`).
    pub version: String,
    /// Scale preset name (`quick` / `standard` / `paper`).
    pub scale: String,
    /// Master seed.
    pub seed: u64,
    /// Attacker stride used in sweeps.
    pub attacker_stride: usize,
    /// Engine dispatch (`auto` unless forced with `--engine`).
    pub engine: String,
    /// Effective worker-thread count. Always the resolved number of
    /// threads parallel regions run on — never the literal `0` of an
    /// unset `--jobs`.
    pub jobs: usize,
    /// ASes in the generated topology.
    pub num_ases: usize,
    /// Figures run, in execution order.
    pub figures: Vec<FigureRecord>,
    /// End-to-end wall time, milliseconds.
    pub total_wall_ms: f64,
    /// Fan-out accounting when the run was sharded across a worker
    /// fleet (`bgpsim fanout`), as the coordinator's `FanoutStats::to_json`
    /// rendered it; `None` for single-node runs.
    pub fanout: Option<Json>,
}

impl RunManifest {
    /// The manifest as a JSON value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema_version".to_string(), Json::from(SCHEMA_VERSION)),
            ("tool".to_string(), Json::str("bgpsim")),
            ("version".to_string(), Json::str(&self.version)),
            (
                "config".to_string(),
                Json::obj([
                    ("scale", Json::str(&self.scale)),
                    ("seed", Json::from(self.seed)),
                    ("attacker_stride", Json::from(self.attacker_stride)),
                    ("engine", Json::str(&self.engine)),
                    ("jobs", Json::from(self.jobs)),
                    ("num_ases", Json::from(self.num_ases)),
                ]),
            ),
            ("total_wall_ms".to_string(), Json::Num(self.total_wall_ms)),
            (
                "figures".to_string(),
                Json::Arr(self.figures.iter().map(FigureRecord::to_json).collect()),
            ),
        ];
        if let Some(fanout) = &self.fanout {
            pairs.push(("fanout".to_string(), fanout.clone()));
        }
        Json::Obj(pairs)
    }

    /// Renders the manifest as pretty-printed JSON.
    #[must_use]
    pub fn render(&self) -> String {
        self.to_json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_escapes() {
        assert_eq!(Json::Null.render_compact(), "null");
        assert_eq!(Json::Bool(true).render_compact(), "true");
        assert_eq!(Json::Num(3.0).render_compact(), "3");
        assert_eq!(Json::Num(3.5).render_compact(), "3.5");
        assert_eq!(Json::Num(f64::NAN).render_compact(), "null");
        assert_eq!(
            Json::str("a\"b\\c\n\u{1}").render_compact(),
            "\"a\\\"b\\\\c\\n\\u0001\""
        );
    }

    #[test]
    fn renders_nested_pretty() {
        let v = Json::obj([
            ("a", Json::from(1u64)),
            ("b", Json::Arr(vec![Json::from(2u64), Json::str("x")])),
            ("c", Json::obj::<&str, _>([])),
        ]);
        let s = v.render();
        assert!(s.starts_with("{\n  \"a\": 1,\n"));
        assert!(s.contains("\"b\": [\n    2,\n    \"x\"\n  ]"));
        assert!(s.contains("\"c\": {}"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn manifest_layout_is_stable() {
        let manifest = RunManifest {
            version: "0.1.0".into(),
            scale: "quick".into(),
            seed: 2014,
            attacker_stride: 2,
            engine: "auto".into(),
            jobs: 8,
            num_ases: 2000,
            figures: vec![FigureRecord {
                id: "fig2".into(),
                wall_ms: 12.5,
                artifacts: vec!["fig2.svg".into(), "fig2.csv".into()],
                telemetry: None,
            }],
            total_wall_ms: 20.0,
            fanout: None,
        };
        let s = manifest.render();
        for needle in [
            "\"schema_version\": 1",
            "\"tool\": \"bgpsim\"",
            "\"scale\": \"quick\"",
            "\"seed\": 2014",
            "\"engine\": \"auto\"",
            "\"jobs\": 8",
            "\"id\": \"fig2\"",
            "\"wall_ms\": 12.5",
            "\"telemetry\": null",
        ] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn telemetry_json_drops_trailing_hist_zeros() {
        let mut snapshot = bgpsim_hijack::SweepTelemetry::new().snapshot();
        snapshot.wall_hist[2] = 7;
        snapshot.baseline_bytes = 2048;
        snapshot.baseline_bytes_peak = 1024;
        snapshot.replays_abandoned = 3;
        let s = telemetry_json(&snapshot).render_compact();
        assert!(s.contains("\"wall_hist_us_log2\":[0,0,7]"), "{s}");
        assert!(s.contains("\"engine\":{"));
        assert!(s.contains("\"baseline_bytes\":2048"), "{s}");
        assert!(s.contains("\"baseline_bytes_peak\":1024"), "{s}");
        assert!(s.contains("\"replays_abandoned\":3"), "{s}");
    }

    #[test]
    fn parse_reads_scalars_and_structures() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse("0").unwrap(), Json::Num(0.0));
        assert_eq!(
            Json::parse("[1, [], {\"a\": [2]}]").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Arr(vec![]),
                Json::obj([("a", Json::Arr(vec![Json::Num(2.0)]))]),
            ])
        );
        // Duplicate keys are preserved in order, matching the model.
        assert_eq!(
            Json::parse("{\"k\":1,\"k\":2}").unwrap(),
            Json::Obj(vec![
                ("k".into(), Json::Num(1.0)),
                ("k".into(), Json::Num(2.0)),
            ])
        );
    }

    #[test]
    fn parse_handles_all_escape_forms() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\/d\b\f\n\r\t""#).unwrap(),
            Json::str("a\"b\\c/d\u{8}\u{c}\n\r\t")
        );
        assert_eq!(Json::parse(r#""\u0041\u00e9""#).unwrap(), Json::str("Aé"));
        // Control characters round-trip through the \u form render emits.
        assert_eq!(Json::parse(r#""\u0001""#).unwrap(), Json::str("\u{1}"));
        // Surrogate pair → astral code point.
        assert_eq!(Json::parse(r#""\ud83d\ude00""#).unwrap(), Json::str("😀"));
        // Raw (unescaped) multi-byte UTF-8 passes through.
        assert_eq!(Json::parse("\"π😀\"").unwrap(), Json::str("π😀"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for (input, needle) in [
            ("", "end of input"),
            ("nul", "null"),
            ("[1,]", "unexpected"),
            ("[1 2]", "',' or ']'"),
            ("{\"a\" 1}", "':'"),
            ("{1: 2}", "string object key"),
            ("\"abc", "unterminated"),
            ("\"\\q\"", "invalid escape"),
            ("\"\\u12\"", "truncated"),
            ("\"\\uzzzz\"", "non-hex"),
            ("\"\\ud800\"", "surrogate"),
            ("\"\\udc00x\"", "lone low surrogate"),
            ("\"\x01\"", "control character"),
            ("01", "trailing content"),
            ("1.e3", "digit after"),
            ("1e", "exponent"),
            ("-", "digit"),
            ("1e999", "overflows"),
            ("true false", "trailing content"),
        ] {
            let err = Json::parse(input).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{input:?}: expected {needle:?} in {err}"
            );
        }
        // Depth cap: 200 nested arrays must be rejected, not overflow.
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn parse_inverts_render_on_manifests() {
        let mut snapshot = bgpsim_hijack::SweepTelemetry::new().snapshot();
        snapshot.wall_hist[3] = 11;
        let manifest = RunManifest {
            version: "0.1.0".into(),
            scale: "quick".into(),
            seed: 2014,
            attacker_stride: 2,
            engine: "auto".into(),
            jobs: 8,
            num_ases: 2000,
            figures: vec![FigureRecord {
                id: "fig5".into(),
                wall_ms: 12.53,
                artifacts: vec!["fig5.svg".into()],
                telemetry: Some(snapshot),
            }],
            total_wall_ms: 20.25,
            fanout: Some(Json::obj([
                ("rejected", Json::Arr(vec![Json::str("127.0.0.1:9")])),
                ("shards_total", Json::from(4u64)),
            ])),
        };
        let v = manifest.to_json();
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(Json::parse(&v.render_compact()).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_render_null_and_round_trip_to_null() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rendered = Json::Num(bad).render_compact();
            assert_eq!(rendered, "null");
            assert_eq!(Json::parse(&rendered).unwrap(), Json::Null);
        }
    }
}
