//! Packed storage for a recorded event stream.
//!
//! A [`PackedEvents`] is one append-only byte buffer. Each event is
//! written as
//!
//! * `seq` as a zigzag LEB128 delta from the previous event's `seq + 1`
//!   (the first event's from 0), so a dense recorded stream spends one
//!   zero byte per event on it;
//! * `t_ns` as a zigzag LEB128 delta from the previous event's time (the
//!   first event's from 0): native `record_at` sites can stamp a time
//!   earlier than the event before them;
//! * one tag byte naming the [`TraceEvent`] variant, then its fields in
//!   declaration order: integers as LEB128, bools, [`Trigger`] and the
//!   `Option` flag as one byte each, the fault `kind` string and the
//!   `consumers` list as a LEB128 length followed by the bytes or ids.
//!
//! A simulated flash-crowd stream averages under 6 bytes per event,
//! against 72 for an in-memory [`Event`]. Every value has exactly one
//! encoding (minimal LEB128, wrapping deltas), so two streams hold the
//! same events exactly when they hold the same bytes. Bytes only ever
//! come from the encoder, so the decoder accepts exactly what it writes
//! and panics on anything else.

use crate::{Event, TraceEvent, Trigger};
use std::fmt;

/// A recorded event stream, packed (see the module docs). Build one by
/// [`push`](PackedEvents::push) or by collecting [`Event`]s; read it
/// back with [`iter`](PackedEvents::iter), which decodes one event at a
/// time.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct PackedEvents {
    bytes: Vec<u8>,
    len: usize,
    /// The `seq` a dense stream's next event carries.
    next_seq: u64,
    /// The last event's `t_ns`.
    last_t_ns: u64,
}

impl PackedEvents {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream holds no event.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The encoded stream.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Appends one event.
    pub fn push(&mut self, event: &Event) {
        self.encode(event.seq, event.t_ns, &event.kind);
    }

    /// Appends one event given by its parts.
    #[inline]
    pub(crate) fn encode(&mut self, seq: u64, t_ns: u64, kind: &TraceEvent) {
        let out = &mut self.bytes;
        put_varint(out, zigzag(seq.wrapping_sub(self.next_seq)));
        put_varint(out, zigzag(t_ns.wrapping_sub(self.last_t_ns)));
        put_kind(out, kind);
        self.next_seq = seq.wrapping_add(1);
        self.last_t_ns = t_ns;
        self.len += 1;
    }

    /// Decodes the events in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            reader: Reader {
                bytes: &self.bytes,
                pos: 0,
            },
            left: self.len,
            next_seq: 0,
            last_t_ns: 0,
        }
    }
}

impl fmt::Debug for PackedEvents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<Event> for PackedEvents {
    fn from_iter<I: IntoIterator<Item = Event>>(events: I) -> Self {
        let mut packed = PackedEvents::new();
        for event in events {
            packed.push(&event);
        }
        packed
    }
}

impl<'a> IntoIterator for &'a PackedEvents {
    type Item = Event;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Decoding iterator over a [`PackedEvents`]; yields owned [`Event`]s.
pub struct Iter<'a> {
    reader: Reader<'a>,
    left: usize,
    next_seq: u64,
    last_t_ns: u64,
}

impl Iterator for Iter<'_> {
    type Item = Event;

    /// Always inlined, so a consumer's own match on the variant can fold
    /// into the decoder's dispatch on the tag.
    #[inline(always)]
    fn next(&mut self) -> Option<Event> {
        if self.left == 0 {
            assert_eq!(
                self.reader.pos,
                self.reader.bytes.len(),
                "packed event stream: bytes past the last event"
            );
            return None;
        }
        self.left -= 1;
        let r = &mut self.reader;
        let seq = self.next_seq.wrapping_add(unzigzag(r.varint()));
        let t_ns = self.last_t_ns.wrapping_add(unzigzag(r.varint()));
        let kind = get_kind(r);
        self.next_seq = seq.wrapping_add(1);
        self.last_t_ns = t_ns;
        Some(Event { seq, t_ns, kind })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Maps a wrapping difference, read as signed, to small unsigned values
/// for small magnitudes of either sign.
#[inline]
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Minimal unsigned LEB128.
#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    #[inline]
    fn byte(&mut self) -> u8 {
        let b = *self
            .bytes
            .get(self.pos)
            .expect("packed event stream: truncated event");
        self.pos += 1;
        b
    }

    #[inline]
    fn varint(&mut self) -> u64 {
        let b = self.byte();
        if b < 0x80 {
            return u64::from(b);
        }
        let mut v = u64::from(b & 0x7f);
        let mut shift = 7;
        loop {
            let b = self.byte();
            assert!(
                shift < 63 || b == 1,
                "packed event stream: varint overflows u64"
            );
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                assert_ne!(b, 0, "packed event stream: non-minimal varint");
                return v;
            }
            shift += 7;
        }
    }

    fn len(&mut self) -> usize {
        let n = usize::try_from(self.varint()).expect("packed event stream: length overflows");
        assert!(
            n <= self.bytes.len() - self.pos,
            "packed event stream: length {n} past the end"
        );
        n
    }

    fn flag(&mut self) -> bool {
        match self.byte() {
            0 => false,
            1 => true,
            b => panic!("packed event stream: flag byte {b}"),
        }
    }
}

/// One payload field's encoding.
trait Field: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Self;
}

impl Field for u32 {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Self {
        u32::try_from(r.varint()).expect("packed event stream: u32 field out of range")
    }
}

impl Field for u64 {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Self {
        r.varint()
    }
}

impl Field for bool {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Self {
        r.flag()
    }
}

impl Field for Trigger {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Trigger::Scheduled => 0,
            Trigger::Overflow => 1,
            Trigger::Item => 2,
        });
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Self {
        match r.byte() {
            0 => Trigger::Scheduled,
            1 => Trigger::Overflow,
            2 => Trigger::Item,
            b => panic!("packed event stream: trigger byte {b}"),
        }
    }
}

impl Field for Option<u64> {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.is_some()));
        if let Some(v) = self {
            put_varint(out, *v);
        }
    }

    fn get(r: &mut Reader<'_>) -> Self {
        r.flag().then(|| r.varint())
    }
}

impl Field for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Self {
        let n = r.len();
        let text = &r.bytes[r.pos..r.pos + n];
        r.pos += n;
        String::from_utf8(text.to_vec()).expect("packed event stream: string is not UTF-8")
    }
}

impl Field for Vec<u32> {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for id in self {
            id.put(out);
        }
    }

    fn get(r: &mut Reader<'_>) -> Self {
        // Every id takes at least one byte, so `len` bounds the count.
        let n = r.len();
        (0..n).map(|_| u32::get(r)).collect()
    }
}

/// The tag and field order of every variant. The match has no `_` arm
/// and every pattern names every field, so a new variant or field fails
/// to compile until it is listed here. Tags are part of the layout:
/// append new ones, never renumber.
macro_rules! packed_layout {
    ($($tag:literal => $variant:ident { $($field:ident),+ }),+ $(,)?) => {
        #[inline]
        fn put_kind(out: &mut Vec<u8>, kind: &TraceEvent) {
            match kind {
                $(TraceEvent::$variant { $($field),+ } => {
                    out.push($tag);
                    $(Field::put($field, out);)+
                })+
            }
        }

        /// Struct-expression fields evaluate in source order, so the
        /// fields are read in the order `put_kind` wrote them.
        #[inline(always)]
        fn get_kind(r: &mut Reader<'_>) -> TraceEvent {
            match r.byte() {
                $($tag => TraceEvent::$variant { $($field: Field::get(r)),+ },)+
                tag => panic!("packed event stream: unknown tag {tag}"),
            }
        }
    };
}

packed_layout! {
    0 => Produce { pair },
    1 => Invoke { pair, trigger, batch, capacity },
    2 => Flush { pair, drained },
    3 => Wakeup { pair },
    4 => CoreSpan { core, start_ns, end_ns, wakeup },
    5 => SlotSelect { pair, core, slot, latched, rate_overrun },
    6 => SlotReserve { core, consumer, slot, prev },
    7 => SlotRelease { core, consumer, slot },
    8 => SlotDispatch { core, slot, consumers },
    9 => BufferCreate { owner, capacity, pool_available, pool_total },
    10 => BufferGrow { owner, from, to, want, pool_available },
    11 => BufferShrink { owner, from, to, pool_available },
    12 => BufferDestroy { owner, released, pool_available },
    13 => FaultInjected { id, kind, pair, core, param, pool_available },
    14 => ItemShed { pair },
    15 => OverloadEntered { pair, occupancy, escalated },
    16 => OverloadCleared { pair, shed },
    17 => FaultRecovered { id, kind, pair, core, param, pool_available },
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream of `len` events over hand-written bytes.
    fn raw(bytes: &[u8], len: usize) -> Vec<Event> {
        let packed = PackedEvents {
            bytes: bytes.to_vec(),
            len,
            ..PackedEvents::default()
        };
        packed.iter().collect()
    }

    #[test]
    fn decodes_what_the_encoder_writes() {
        // seq 0, t_ns 0, Produce { pair: 7 }; then seq 1, t_ns 300.
        let events = raw(&[0, 0, 0, 7, 0, 0xd8, 0x04, 0, 7], 2);
        assert_eq!(events[1].t_ns, 300);
        let packed: PackedEvents = events.into_iter().collect();
        assert_eq!(packed.as_bytes(), [0, 0, 0, 7, 0, 0xd8, 0x04, 0, 7]);
    }

    #[test]
    #[should_panic(expected = "unknown tag 18")]
    fn unknown_tag_panics() {
        raw(&[0, 0, 18], 1);
    }

    #[test]
    #[should_panic(expected = "non-minimal varint")]
    fn overlong_varint_panics() {
        raw(&[0x80, 0x00, 0, 0, 7], 1);
    }

    #[test]
    #[should_panic(expected = "varint overflows u64")]
    fn varint_past_u64_panics() {
        let mut bytes = vec![0xff; 9];
        bytes.extend([0x02, 0, 0, 7]);
        raw(&bytes, 1);
    }

    #[test]
    #[should_panic(expected = "u32 field out of range")]
    fn wide_u32_field_panics() {
        raw(&[0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10], 1);
    }

    #[test]
    #[should_panic(expected = "flag byte 2")]
    fn bad_bool_panics() {
        raw(&[0, 0, 4, 0, 0, 0, 2], 1);
    }

    #[test]
    #[should_panic(expected = "truncated event")]
    fn truncated_event_panics() {
        raw(&[0, 0, 0], 1);
    }

    #[test]
    #[should_panic(expected = "bytes past the last event")]
    fn trailing_bytes_panic() {
        raw(&[0, 0, 0, 7, 0], 1);
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn overlong_list_panics() {
        raw(&[0, 0, 8, 0, 0, 5, 1], 1);
    }
}
