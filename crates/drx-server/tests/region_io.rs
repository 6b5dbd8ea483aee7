//! The server's region pipeline against the serial library, plus the
//! lifetime and admission rules around it.
//!
//! * Region reads and writes through the server — in process (`Client`)
//!   or over TCP (`TcpClient`) — equal `DrxFile`'s byte for byte, over
//!   random grown shapes, unaligned regions and f32 / f64 / Complex64
//!   elements. Both payloads start filled with the same nonzero bytes, so
//!   chunk slack beyond the element bounds is visible: a partial-chunk
//!   write that clobbered it would show once a later extend brings the
//!   slack into bounds, and in the final comparison of the payload files.
//! * An array is retired when its last handle closes, so a deleted and
//!   re-created array is read afresh.
//! * A read whose reply exceeds the negotiated frame cap is refused before
//!   the server touches the cache or the file system.

use drx_core::{dtype, Complex64, Element, Layout, Region};
use drx_mp::{DrxFile, XMD_SUFFIX, XTA_SUFFIX};
use drx_pfs::Pfs;
use drx_server::{
    serve_with, Client, Conn, ErrorCode, ServeConfig, Server, ServerConfig, TcpClient, Transport,
};
use proptest::prelude::*;

/// One step of a case: kind (0 write, 1 read, 2 extend), two fractional
/// region corners, and a seed for values or the extension.
type Step = (u8, Vec<f64>, Vec<f64>, u64);

fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn f32_of(x: u64) -> f32 {
    (mix(x) % 100_000) as f32 / 8.0 - 5000.0
}

fn f64_of(x: u64) -> f64 {
    (mix(x) >> 11) as f64 / 1024.0 - 1e12
}

fn c64_of(x: u64) -> Complex64 {
    Complex64 { re: f64_of(x), im: f64_of(!x) }
}

/// The region spanned by two fractional corners inside `bounds`.
fn region_between(bounds: &[usize], a: &[f64], b: &[f64]) -> Region {
    let at = |f: f64, n: usize| ((f * n as f64) as usize).min(n - 1);
    let (x, y): (Vec<usize>, Vec<usize>) =
        bounds.iter().enumerate().map(|(d, &n)| (at(a[d], n), at(b[d], n))).unzip();
    let lo = x.iter().zip(&y).map(|(&p, &q)| p.min(q)).collect();
    let hi = x.iter().zip(&y).map(|(&p, &q)| p.max(q) + 1).collect();
    Region::new(lo, hi).unwrap()
}

fn dims(v: &[usize]) -> Vec<u64> {
    v.iter().map(|&x| x as u64).collect()
}

/// Fill an array's whole payload, slack included, with nonzero bytes
/// that decode to finite floats (no byte reaches 0x7F).
fn prefill(pfs: &Pfs, name: &str, seed: u64) {
    let f = pfs.open(&format!("{name}{XTA_SUFFIX}")).unwrap();
    let bytes: Vec<u8> = (0..f.len()).map(|i| 1 + (mix(i ^ seed) % 0x7E) as u8).collect();
    f.write_at(0, &bytes).unwrap();
}

fn file_bytes(pfs: &Pfs, name: &str) -> Vec<u8> {
    let f = pfs.open(name).unwrap();
    f.read_vec(0, f.len() as usize).unwrap()
}

/// Apply `steps` to `file` and, through `conn`, to the server's twin
/// array `srv`; every read and every bounds report must agree.
fn drive<E: Element, T: Transport>(
    conn: &mut Conn<T>,
    file: &mut DrxFile<E>,
    steps: &[Step],
    value: fn(u64) -> E,
) {
    let (h, info) = conn.open("srv").unwrap();
    assert_eq!(info.bounds, dims(file.bounds()));
    for (n, (kind, a, b, seed)) in steps.iter().enumerate() {
        let rank = file.bounds().len();
        let region = region_between(file.bounds(), a, b);
        let (lo, hi) = (dims(region.lo()), dims(region.hi()));
        match kind {
            0 => {
                let data: Vec<E> =
                    (0..region.volume()).map(|i| value(seed.wrapping_add(i))).collect();
                file.write_region(&region, Layout::C, &data).unwrap();
                conn.write_region(h, &lo, &hi, &dtype::encode_slice(&data)).unwrap();
            }
            1 => {
                let want = dtype::encode_slice(&file.read_region(&region, Layout::C).unwrap());
                assert_eq!(conn.read_region(h, &lo, &hi).unwrap(), want, "step {n}: {region:?}");
            }
            _ => {
                let (dim, by) = ((seed % rank as u64) as usize, 1 + (seed >> 8) % 4);
                file.extend(dim, by as usize).unwrap();
                let bounds = conn.extend(h, dim as u32, by).unwrap();
                assert_eq!(bounds, dims(file.bounds()), "step {n}: extend({dim}, {by})");
            }
        }
    }
    let all = file.meta().element_region();
    let want = dtype::encode_slice(&file.read_region(&all, Layout::C).unwrap());
    assert_eq!(conn.read_region(h, &dims(all.lo()), &dims(all.hi())).unwrap(), want);
    conn.close(h).unwrap();
}

fn check<E: Element>(
    tcp: bool,
    chunk: &[usize],
    initial: &[usize],
    steps: &[Step],
    fill: u64,
    value: fn(u64) -> E,
) {
    // Small stripes split chunks across servers.
    let pfs = Pfs::memory(3, 40).unwrap();
    let mut file: DrxFile<E> = DrxFile::create(&pfs, "ref", chunk, initial).unwrap();
    drop(DrxFile::<E>::create(&pfs, "srv", chunk, initial).unwrap());
    prefill(&pfs, "ref", fill);
    prefill(&pfs, "srv", fill);
    // A three-chunk cache: most regions evict and write back mid-request.
    let server = Server::new(pfs.clone(), ServerConfig { cache_chunks: 3 });
    if tcp {
        let config = ServeConfig { threads: 1, ..ServeConfig::default() };
        let serving = serve_with(&server, "127.0.0.1:0", config).unwrap();
        drive(&mut TcpClient::connect(serving.addr()).unwrap(), &mut file, steps, value);
        serving.shutdown().unwrap();
    } else {
        drive(&mut Client::connect(&server), &mut file, steps, value);
    }
    // The close flushed every dirty frame: the two arrays are identical on
    // storage, slack bytes included.
    for suffix in [XMD_SUFFIX, XTA_SUFFIX] {
        let (want, got) = (format!("ref{suffix}"), format!("srv{suffix}"));
        assert!(file_bytes(&pfs, &want) == file_bytes(&pfs, &got), "{got} differs from {want}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn server_region_io_matches_drx_file(
        rank in 2usize..4,
        chunk in prop::collection::vec(1usize..5, 3),
        initial in prop::collection::vec(1usize..8, 3),
        steps in prop::collection::vec(
            (
                0u8..3,
                prop::collection::vec(0.0f64..1.0, 3),
                prop::collection::vec(0.0f64..1.0, 3),
                any::<u64>(),
            ),
            1..14,
        ),
        element in 0usize..3,
        tcp in prop::bool::ANY,
        fill in any::<u64>(),
    ) {
        let (chunk, initial) = (&chunk[..rank], &initial[..rank]);
        match element {
            0 => check::<f32>(tcp, chunk, initial, &steps, fill, f32_of),
            1 => check::<f64>(tcp, chunk, initial, &steps, fill, f64_of),
            _ => check::<Complex64>(tcp, chunk, initial, &steps, fill, c64_of),
        }
    }
}

#[test]
fn reopen_after_delete_and_recreate_sees_the_new_array() {
    let pfs = Pfs::memory(2, 256).unwrap();
    let mut old: DrxFile<f64> = DrxFile::create(&pfs, "x", &[4, 4], &[8, 8]).unwrap();
    old.fill_with(|i| (i[0] * 8 + i[1]) as f64).unwrap();
    drop(old);
    let server = Server::new(pfs.clone(), ServerConfig::default());

    // Two sessions hold `x`; the array lives until the last one lets go.
    let mut c1 = Client::connect(&server);
    let mut c2 = Client::connect(&server);
    let (h1, info) = c1.open("x").unwrap();
    assert_eq!(info.bounds, vec![8, 8]);
    let (h2, _) = c2.open("x").unwrap();
    c1.write_region_from::<f64>(h1, &[7, 7], &[8, 8], &[-1.0]).unwrap();
    c1.close(h1).unwrap();
    assert_eq!(c2.read_region_as::<f64>(h2, &[7, 6], &[8, 8]).unwrap(), vec![62.0, -1.0]);
    // Ending the session releases its handle: `x` is retired.
    drop(c2);

    DrxFile::<f64>::delete(&pfs, "x").unwrap();
    let mut new: DrxFile<f64> = DrxFile::create(&pfs, "x", &[2, 3], &[5, 9]).unwrap();
    new.fill_with(|i| -((i[0] * 9 + i[1]) as f64) - 2.0).unwrap();
    drop(new);

    let (h, info) = c1.open("x").unwrap();
    assert_eq!(info.bounds, vec![5, 9]);
    assert_eq!(info.chunk_shape, vec![2, 3]);
    let want: Vec<f64> = (0..45).map(|k| -(k as f64) - 2.0).collect();
    assert_eq!(c1.read_region_as::<f64>(h, &[0, 0], &[5, 9]).unwrap(), want);
    // The retired array's cache went with it: the new one started cold.
    let stat = c1.stat(h).unwrap();
    assert_eq!(stat.global_cache.misses, stat.total_chunks);
}

#[test]
fn region_larger_than_the_cache_reads_each_chunk_once() {
    // 4 × 16 f64 in 2 × 2 chunks: 16 chunks of 32 bytes, through 4 frames.
    let pfs = Pfs::memory(2, 4096).unwrap();
    let mut file: DrxFile<f64> = DrxFile::create(&pfs, "wide", &[2, 2], &[4, 16]).unwrap();
    file.fill_with(|i| (i[0] * 16 + i[1]) as f64).unwrap();
    drop(file);
    let server = Server::new(pfs.clone(), ServerConfig { cache_chunks: 4 });
    let mut c = Client::connect(&server);
    let (h, _) = c.open("wide").unwrap();
    pfs.reset_stats();

    let got = c.read_region_as::<f64>(h, &[0, 0], &[4, 16]).unwrap();
    assert_eq!(got, (0..64).map(f64::from).collect::<Vec<_>>());
    let stat = c.stat(h).unwrap();
    assert_eq!(stat.total_chunks, 16);
    assert_eq!(stat.global_cache.misses, 16);
    let read: u64 = pfs.stats().per_server.iter().map(|s| s.bytes_read).sum();
    assert_eq!(read, 16 * 32, "each chunk's bytes are read once");
}

#[test]
fn oversized_read_is_refused_before_any_work() {
    let pfs = Pfs::memory(2, 256).unwrap();
    let mut file: DrxFile<f64> = DrxFile::create(&pfs, "big", &[8, 8], &[64, 64]).unwrap();
    file.fill_with(|i| (i[0] * 64 + i[1]) as f64).unwrap();
    drop(file);
    let server = Server::new(pfs.clone(), ServerConfig::default());
    let config = ServeConfig { threads: 1, ..ServeConfig::default() };
    let serving = serve_with(&server, "127.0.0.1:0", config).unwrap();
    let mut c = TcpClient::connect_with_max_frame(serving.addr(), 1024).unwrap();
    let (h, _) = c.open("big").unwrap();
    let before = c.stat(h).unwrap();

    // 16 × 16 f64 is a 2 KiB payload, over the 1 KiB cap.
    let err = c.read_region(h, &[0, 0], &[16, 16]).unwrap_err();
    assert_eq!(err.code, ErrorCode::FrameTooLarge, "{err}");
    let after = c.stat(h).unwrap();
    assert_eq!(after.global_cache, before.global_cache);
    assert_eq!(after.pfs_requests, before.pfs_requests);

    // The connection still serves a read that fits: 2 × 63 f64 is 1008
    // payload bytes, 1013 with the header.
    let got = c.read_region_as::<f64>(h, &[3, 1], &[5, 64]).unwrap();
    let want: Vec<f64> =
        (3..5).flat_map(|r| (1..64).map(move |col| (r * 64 + col) as f64)).collect();
    assert_eq!(got, want);
    assert!(c.stat(h).unwrap().global_cache.misses > before.global_cache.misses);
    drop(c);
    serving.shutdown().unwrap();
}

/// Every out-of-bounds or wrong-rank region request is refused with
/// `OutOfBounds`, before the payload length or the frame cap is looked at.
/// With `writes` false only reads are sent (a write payload may not fit a
/// small frame cap on the way out).
fn region_errors_are_out_of_bounds<T: Transport>(c: &mut Conn<T>, writes: bool) {
    // 6×6 elements in 4×4 chunks: rows and columns 6..8 are edge-chunk
    // slack, 8.. lies past the chunk grid.
    let (h, _) = c.open("oob").unwrap();
    let bad: [(&[u64], &[u64]); 6] = [
        (&[0, 0], &[8, 8]),
        (&[0, 0], &[9, 9]),
        (&[5, 0], &[6, 7]),
        (&[0], &[2]),
        (&[0, 0, 0], &[1, 1, 1]),
        (&[], &[]),
    ];
    for (lo, hi) in bad {
        let err = c.read_region(h, lo, hi).unwrap_err();
        assert_eq!(err.code, ErrorCode::OutOfBounds, "read [{lo:?}, {hi:?}): {err}");
        if !writes {
            continue;
        }
        let volume: u64 = lo.iter().zip(hi).map(|(&l, &h)| h - l).product();
        let data = vec![0u8; volume as usize * 8];
        let err = c.write_region(h, lo, hi, &data).unwrap_err();
        assert_eq!(err.code, ErrorCode::OutOfBounds, "write [{lo:?}, {hi:?}): {err}");
        // A payload of the wrong length does not mask the region error.
        let err = c.write_region(h, lo, hi, &[0u8; 8]).unwrap_err();
        assert_eq!(err.code, ErrorCode::OutOfBounds, "short write [{lo:?}, {hi:?}): {err}");
    }
    // The session is intact and the array untouched.
    assert_eq!(c.read_region_as::<f64>(h, &[5, 5], &[6, 6]).unwrap(), vec![35.0]);
    c.close(h).unwrap();
}

#[test]
fn out_of_bounds_and_wrong_rank_regions_are_refused_typed() {
    let pfs = Pfs::memory(2, 256).unwrap();
    let mut file: DrxFile<f64> = DrxFile::create(&pfs, "oob", &[4, 4], &[6, 6]).unwrap();
    file.fill_with(|i| (i[0] * 6 + i[1]) as f64).unwrap();
    drop(file);
    let server = Server::new(pfs, ServerConfig::default());
    region_errors_are_out_of_bounds(&mut Client::connect(&server), true);
    let config = ServeConfig { threads: 1, ..ServeConfig::default() };
    let serving = serve_with(&server, "127.0.0.1:0", config).unwrap();
    region_errors_are_out_of_bounds(&mut TcpClient::connect(serving.addr()).unwrap(), true);
    // A frame cap below the largest bad read: the bounds check comes first.
    let mut c = TcpClient::connect_with_max_frame(serving.addr(), 256).unwrap();
    region_errors_are_out_of_bounds(&mut c, false);
    drop(c);
    serving.shutdown().unwrap();
}
