//! Span args: typed values kept as they were recorded, rendered only where
//! they are read (`/trace`, `/profile`'s `pool` and `device` lookups, log
//! instants). Recording one copies a number or a few bytes of text into the
//! open span's event; nothing is allocated or formatted.

use std::fmt;
use std::ops::Range;

/// The most args a span keeps inline: as many as `job.kernel`, the
/// production span with the most, carries.
pub(crate) const INLINE_ARGS: usize = 6;

/// Bytes of text a span keeps inline, shared by all its text args
/// (`job.kernel`'s pool and kernel names, `http.request`'s method and path).
pub(crate) const INLINE_TEXT: usize = 40;

/// One arg value as it was recorded and as it reads back. Its
/// [`Display`](fmt::Display) form is the text `/trace` and `/profile` show.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue<'a> {
    /// An unsigned integer (every unsigned type records as this).
    U64(u64),
    /// A signed integer (every signed type records as this).
    I64(i64),
    /// A float rendered with one decimal, as `{:.1}` prints it.
    Fixed1(f64),
    /// Text, copied into the event when recorded (a `&'static str` too:
    /// a call cannot tell it from a borrowed one).
    Str(&'a str),
}

impl fmt::Display for ArgValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ArgValue::U64(n) => write!(f, "{n}"),
            ArgValue::I64(n) => write!(f, "{n}"),
            ArgValue::Fixed1(x) => write!(f, "{x:.1}"),
            ArgValue::Str(s) => f.write_str(s),
        }
    }
}

macro_rules! arg_from {
    ($variant:ident: $($t:ty),*) => {$(
        impl From<$t> for ArgValue<'_> {
            fn from(n: $t) -> Self {
                ArgValue::$variant(n as _)
            }
        }
    )*};
}
arg_from!(U64: u8, u16, u32, u64, usize);
arg_from!(I64: i8, i16, i32, i64, isize);

impl<'a> From<&'a str> for ArgValue<'a> {
    fn from(s: &'a str) -> Self {
        ArgValue::Str(s)
    }
}

impl<'a> From<&'a String> for ArgValue<'a> {
    fn from(s: &'a String) -> Self {
        ArgValue::Str(s)
    }
}

/// How an arg's `u64` of bits reads back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Kind {
    U64,
    I64,
    Fixed1,
    /// [`text_bits`] of its bytes in the event's inline text (in a lane's
    /// ring: in the event's packed text).
    Text,
    /// [`text_bits`] of its bytes in the spilled text.
    SpilledText,
}

/// A span's args, in the order they were recorded. The first
/// `INLINE_ARGS` (6) and up to `INLINE_TEXT` (40) bytes of their text live
/// in the event itself, so recording them allocates nothing and a ring
/// that drops the event frees nothing. Past either room an arg spills to
/// the heap, never dropped: the event then owns one box holding the
/// further args and the text that did not fit.
#[derive(Clone)]
pub struct Args {
    keys: [&'static str; INLINE_ARGS],
    bits: [u64; INLINE_ARGS],
    kinds: [Kind; INLINE_ARGS],
    len: u8,
    text_len: u8,
    text: [u8; INLINE_TEXT],
    spill: Option<Box<Spill>>,
}

/// What outgrew an event's inline room.
#[derive(Clone, Default)]
struct Spill {
    args: Vec<(&'static str, Kind, u64)>,
    text: String,
}

/// The bits of a text arg: where its bytes sit in its text.
pub(crate) fn text_bits(bytes: Range<usize>) -> u64 {
    let start = u32::try_from(bytes.start).expect("span arg text under 4 GiB");
    let len = u32::try_from(bytes.len()).expect("span arg text under 4 GiB");
    (u64::from(start) << 32) | u64::from(len)
}

/// Where a text arg's bytes sit in its text.
pub(crate) fn text_range(bits: u64) -> Range<usize> {
    let start = (bits >> 32) as usize;
    start..start + (bits & u64::from(u32::MAX)) as usize
}

/// The value `kind` and `bits` stand for; a text arg's bytes are in `text`.
pub(crate) fn read(kind: Kind, bits: u64, text: &[u8]) -> ArgValue<'_> {
    match kind {
        Kind::U64 => ArgValue::U64(bits),
        Kind::I64 => ArgValue::I64(bits as i64),
        Kind::Fixed1 => ArgValue::Fixed1(f64::from_bits(bits)),
        Kind::Text | Kind::SpilledText => ArgValue::Str(
            std::str::from_utf8(&text[text_range(bits)])
                .expect("arg text is copied whole from a str"),
        ),
    }
}

impl Args {
    /// No args.
    pub const fn new() -> Args {
        Args {
            keys: [""; INLINE_ARGS],
            bits: [0; INLINE_ARGS],
            kinds: [Kind::U64; INLINE_ARGS],
            len: 0,
            text_len: 0,
            text: [0; INLINE_TEXT],
            spill: None,
        }
    }

    /// Record `key = value` after the args already here.
    pub fn push<'v>(&mut self, key: &'static str, value: impl Into<ArgValue<'v>>) {
        let (kind, bits) = match value.into() {
            ArgValue::U64(n) => (Kind::U64, n),
            ArgValue::I64(n) => (Kind::I64, n as u64),
            ArgValue::Fixed1(x) => (Kind::Fixed1, x.to_bits()),
            ArgValue::Str(s) => self.copy_text(s),
        };
        let i = usize::from(self.len);
        if i < INLINE_ARGS {
            self.keys[i] = key;
            self.bits[i] = bits;
            self.kinds[i] = kind;
            self.len += 1;
        } else {
            let spill = self.spill.get_or_insert_with(Box::default);
            spill.args.push((key, kind, bits));
        }
    }

    /// Copy `s` into the inline text if it fits there, else into the spill.
    fn copy_text(&mut self, s: &str) -> (Kind, u64) {
        let start = usize::from(self.text_len);
        if let Some(room) = self.text.get_mut(start..start + s.len()) {
            room.copy_from_slice(s.as_bytes());
            self.text_len += s.len() as u8;
            return (Kind::Text, text_bits(start..start + s.len()));
        }
        let spill = self.spill.get_or_insert_with(Box::default);
        let start = spill.text.len();
        spill.text.push_str(s);
        (Kind::SpilledText, text_bits(start..start + s.len()))
    }

    /// How many args are recorded.
    pub fn len(&self) -> usize {
        usize::from(self.len) + self.spill.as_ref().map_or(0, |s| s.args.len())
    }

    /// Whether no arg is recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every arg, in the order it was recorded.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, ArgValue<'_>)> {
        (self.slots()).map(|(key, kind, bits)| (key, self.value(kind, bits)))
    }

    /// Every arg as it is kept, in the order it was recorded.
    pub(crate) fn slots(&self) -> impl Iterator<Item = (&'static str, Kind, u64)> + '_ {
        let inline =
            (0..usize::from(self.len)).map(|i| (self.keys[i], self.kinds[i], self.bits[i]));
        inline.chain(self.spill.iter().flat_map(|s| s.args.iter().copied()))
    }

    /// The bytes [`Kind::Text`] args point into, then those
    /// [`Kind::SpilledText`] args point into.
    pub(crate) fn texts(&self) -> (&[u8], &[u8]) {
        let spilled = self.spill.as_ref().map_or(&[][..], |s| s.text.as_bytes());
        (&self.text[..usize::from(self.text_len)], spilled)
    }

    /// The first arg named `key`, if any.
    pub fn get(&self, key: &str) -> Option<ArgValue<'_>> {
        self.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    fn value(&self, kind: Kind, bits: u64) -> ArgValue<'_> {
        let (inline, spilled) = self.texts();
        let text = if kind == Kind::SpilledText {
            spilled
        } else {
            inline
        };
        read(kind, bits, text)
    }
}

impl Default for Args {
    fn default() -> Args {
        Args::new()
    }
}

impl fmt::Debug for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_event_holds_six_args_and_forty_bytes_of_text_inline() {
        let mut args = Args::new();
        args.push("pool", "0123abcd");
        args.push("device", 1usize);
        args.push("job", 42u64);
        args.push("kernel", "k".repeat(INLINE_TEXT - 8).as_str());
        args.push("queue_wait_us", ArgValue::Fixed1(3.25));
        args.push("sim_busy_us", ArgValue::Fixed1(0.5));
        assert!(args.spill.is_none(), "{args:?}");
        args.push("seventh", 7u8);
        assert_eq!(args.spill.as_ref().map(|s| s.args.len()), Some(1));
        assert_eq!(args.get("seventh"), Some(ArgValue::U64(7)));
        assert_eq!(args.spill.as_ref().map(|s| s.text.len()), Some(0));
    }
}
