//! Property tests for the wire protocol: every `Request` / `Response`
//! variant survives an encode → decode roundtrip, and every *strict prefix*
//! of a valid body is rejected (the codec reads deterministically and
//! `finish()` demands full consumption, so truncation can never be
//! silently accepted).

use drx_mp::PoolStats;
use drx_server::proto::{
    data_header, decode_request, decode_response, encode_request, encode_response, read_frame,
    write_frame, ArrayInfo, StatReply, DATA_HEADER,
};
use drx_server::{Request, Response};
use proptest::prelude::*;

/// Characters for generated names/messages; includes multi-byte UTF-8 so
/// string length prefixes (byte counts) are exercised against char counts.
const PALETTE: &[char] = &['a', 'Z', '0', '_', '/', ' ', 'é', 'π', '€'];

fn short_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PALETTE.len(), 0..12)
        .prop_map(|ix| ix.into_iter().map(|i| PALETTE[i]).collect())
}

/// Dimension vectors: rank 0..5 (the wire format caps rank at u8).
fn dims() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 0..5)
}

fn payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..40)
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        short_string().prop_map(|name| Request::Open { name }),
        (any::<u32>(), dims(), dims()).prop_map(|(handle, lo, hi)| Request::ReadRegion {
            handle,
            lo,
            hi
        }),
        (any::<u32>(), dims(), dims(), payload())
            .prop_map(|(handle, lo, hi, data)| Request::WriteRegion { handle, lo, hi, data }),
        (any::<u32>(), any::<u32>(), any::<u64>()).prop_map(|(handle, dim, by)| Request::Extend {
            handle,
            dim,
            by
        }),
        any::<u32>().prop_map(|handle| Request::Stat { handle }),
        any::<u32>().prop_map(|handle| Request::Close { handle }),
    ]
}

fn stat_reply() -> impl Strategy<Value = StatReply> {
    (any::<u8>(), dims(), dims(), prop::collection::vec(any::<u64>(), 14)).prop_map(
        |(dtype, bounds, chunk_shape, v)| StatReply {
            dtype,
            bounds,
            chunk_shape,
            total_chunks: v[0],
            payload_bytes: v[1],
            session_cache: PoolStats {
                hits: v[2],
                misses: v[3],
                evictions: v[4],
                writebacks: v[5],
            },
            global_cache: PoolStats { hits: v[6], misses: v[7], evictions: v[8], writebacks: v[9] },
            pfs_requests: v[10],
            pfs_bytes: v[11],
            coalesced_batches: v[12],
            lock_waits: v[13],
        },
    )
}

fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (any::<u32>(), any::<u8>(), dims(), dims()).prop_map(|(handle, dtype, bounds, cs)| {
            Response::Opened { handle, info: ArrayInfo { dtype, bounds, chunk_shape: cs } }
        }),
        payload().prop_map(|data| Response::Data { data }),
        Just(Response::Written),
        dims().prop_map(|bounds| Response::Extended { bounds }),
        stat_reply().prop_map(Response::Stat),
        Just(Response::Closed),
        (any::<u16>(), short_string())
            .prop_map(|(code, message)| Response::Error { code, message }),
    ]
}

/// Every strict prefix of a valid body must fail to decode.
fn assert_prefixes_rejected<T: std::fmt::Debug>(
    body: &[u8],
    decode: impl Fn(&[u8]) -> drx_server::Result<T>,
) -> Result<(), proptest::test_runner::CaseError> {
    for cut in 0..body.len() {
        prop_assert!(
            decode(&body[..cut]).is_err(),
            "strict prefix of {cut}/{} bytes decoded successfully",
            body.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn request_roundtrip_and_truncation(req in request()) {
        let body = encode_request(&req);
        prop_assert_eq!(decode_request(&body).unwrap(), req);
        assert_prefixes_rejected(&body, decode_request)?;
    }

    #[test]
    fn response_roundtrip_and_truncation(resp in response()) {
        let body = encode_response(&resp);
        if let Response::Data { data } = &resp {
            // The in-place encoding the TCP read path uses: header, payload.
            prop_assert_eq!(&body[..DATA_HEADER], &data_header(data.len() as u32)[..]);
            prop_assert_eq!(&body[DATA_HEADER..], &data[..]);
        }
        prop_assert_eq!(decode_response(&body).unwrap(), resp);
        assert_prefixes_rejected(&body, decode_response)?;
    }
}

/// Deterministic per-variant coverage, independent of RNG draws: one
/// roundtrip for each `Request` and `Response` variant.
#[test]
fn every_variant_roundtrips() {
    let requests = [
        Request::Open { name: "grid/é".into() },
        Request::ReadRegion { handle: 9, lo: vec![], hi: vec![] },
        Request::WriteRegion { handle: 1, lo: vec![0], hi: vec![u64::MAX], data: vec![0xAB; 3] },
        Request::Extend { handle: 2, dim: 3, by: u64::MAX },
        Request::Stat { handle: 0 },
        Request::Close { handle: u32::MAX },
    ];
    for req in requests {
        let body = encode_request(&req);
        assert_eq!(decode_request(&body).unwrap(), req);
    }
    let responses = [
        Response::Opened {
            handle: 5,
            info: ArrayInfo { dtype: 2, bounds: vec![4, 4], chunk_shape: vec![2, 2] },
        },
        Response::Data { data: vec![1, 2, 3] },
        Response::Written,
        Response::Extended { bounds: vec![6, 4] },
        Response::Stat(StatReply { dtype: 1, bounds: vec![8], ..StatReply::default() }),
        Response::Closed,
        Response::Error { code: 404, message: "no such array".into() },
    ];
    for resp in responses {
        let body = encode_response(&resp);
        assert_eq!(decode_response(&body).unwrap(), resp);
    }
}

/// Frame-level truncation: a frame cut anywhere inside its body is a
/// protocol error, and a cut inside the length header never yields a frame.
#[test]
fn truncated_frames_are_rejected() {
    let body = encode_request(&Request::Open { name: "payload".into() });
    let mut stream = Vec::new();
    write_frame(&mut stream, &body, drx_server::proto::MAX_FRAME).unwrap();
    assert_eq!(stream.len(), 4 + body.len());

    // Complete stream: one frame, then clean EOF.
    let mut r = &stream[..];
    assert_eq!(read_frame(&mut r, drx_server::proto::MAX_FRAME).unwrap(), Some(body.clone()));
    assert_eq!(read_frame(&mut r, drx_server::proto::MAX_FRAME).unwrap(), None);

    for cut in 0..stream.len() {
        let mut r = &stream[..cut];
        let got = read_frame(&mut r, drx_server::proto::MAX_FRAME);
        if cut < 4 {
            // Inside the length header: indistinguishable from EOF at a
            // frame boundary (cut 0) or reported as an error — but never a
            // successfully decoded frame.
            assert!(!matches!(got, Ok(Some(_))), "cut {cut} produced a frame");
        } else {
            assert!(got.is_err(), "cut {cut} inside the body must be a protocol error");
        }
    }
}
