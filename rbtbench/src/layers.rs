//! In-process replays of the work a Transform request causes, timed one
//! public call at a time: the frame codec, the session registry, the key
//! decoder, the release session and the thread pool.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rbt_api::decode_fitted;
use rbt_core::ReleaseSession;
use rbt_data::Dataset;
use rbt_linalg::codec::crc32;
use rbt_linalg::Matrix;
use rbt_server::wire::{decode_frame, encode_frame};
use rbt_server::{Request, Response, SessionRegistry};

use crate::alloc;
use crate::check::{same_bits, same_release};
use crate::measure::median;
use crate::report::Report;
use crate::trace::Tracer;

/// One request of the run, with the release the program must return.
pub struct Sample {
    pub tenant: String,
    pub batch: Dataset,
    pub want: Dataset,
    pub out_of_range_rows: u64,
    /// Request id and the spans the socket run recorded for it (0 when it
    /// did not go over a socket, or tracing was off).
    pub req: u64,
    pub roundtrip_span: u64,
    pub send_span: u64,
}

fn us(t: Instant, end: Instant) -> f64 {
    (end - t).as_secs_f64() * 1e6
}

fn session_for<'a>(
    sessions: &'a mut BTreeMap<String, ReleaseSession>,
    keys: &BTreeMap<String, Vec<u8>>,
    tenant: &str,
) -> &'a mut ReleaseSession {
    sessions.entry(tenant.to_string()).or_insert_with(|| {
        ReleaseSession::from_bytes(&keys[tenant]).expect("the benchmark's own keys decode")
    })
}

/// Replays `samples` through every layer for at least `budget_s` seconds
/// (at least two rounds; allocation counts come from the last round, spans
/// are recorded in the last round only). Returns the summed median
/// microseconds of the in-process layers one Transform round trip crosses.
pub fn replay(
    report: &mut Report,
    tracer: &mut Tracer,
    samples: &[Sample],
    keys: &BTreeMap<String, Vec<u8>>,
    capacity: usize,
    budget_s: f64,
) -> f64 {
    let registry = SessionRegistry::new(capacity);
    for (tenant, bytes) in keys {
        if let Err(e) = registry.load_key(tenant, bytes.clone()) {
            report.failed("replay", format!("load_key {tenant}: {e}"));
        }
    }
    let miss_registry = SessionRegistry::new(1);
    let mut sessions: BTreeMap<String, ReleaseSession> = BTreeMap::new();
    let mut out = Matrix::zeros(0, 0);

    let mut t_req_enc = Vec::new();
    let mut t_req_dec = Vec::new();
    let mut t_resp_enc = Vec::new();
    let mut t_resp_dec = Vec::new();
    let mut t_hit = Vec::new();
    let mut t_miss = Vec::new();
    let mut t_load = Vec::new();
    let mut t_decode = Vec::new();
    let mut t_session = Vec::new();
    let (mut crc_bytes, mut crc_s) = (0usize, 0f64);
    let mut wire_allocs = Vec::new();
    let mut wire_alloc_bytes = Vec::new();
    let mut reg_allocs = Vec::new();
    let mut reg_alloc_bytes = Vec::new();
    let mut sess_allocs = Vec::new();
    let mut sess_alloc_bytes = Vec::new();
    let mut ok = 0u64;

    let started = Instant::now();
    let mut round = 0;
    loop {
        let last = round >= 1 && (started.elapsed().as_secs_f64() >= budget_s || round >= 49);
        let mut tr = Tracer::new(last && tracer.on(), tracer.epoch());
        for (i, s) in samples.iter().enumerate() {
            let id = if s.req != 0 { s.req } else { i as u64 + 1 };
            let request = Request::Transform {
                tenant: s.tenant.clone(),
                batch: s.batch.clone(),
            };
            let response = Response::Transformed {
                released: s.want.clone(),
                out_of_range_rows: s.out_of_range_rows,
            };

            // Frame codec, both directions.
            let a0 = alloc::now();
            let t = Instant::now();
            let req_bytes = encode_frame(&request.to_frame().with_request_id(id));
            let end = Instant::now();
            let mut wire_calls = a0.since();
            t_req_enc.push(us(t, end));
            let enc_span = tr.record("wire.req_encode", "server.wire", id, s.send_span, t, end);

            let body = &req_bytes[..req_bytes.len() - 4];
            let t = Instant::now();
            let crc = crc32(black_box(body));
            let end = Instant::now();
            crc_s += end.duration_since(t).as_secs_f64();
            crc_bytes += body.len();
            tr.record("codec.crc32", "linalg.codec", id, enc_span, t, end);
            if crc.to_le_bytes() != req_bytes[req_bytes.len() - 4..] {
                report.mismatch("replay", "CRC-32 disagrees with the frame trailer".into());
            }

            let a0 = alloc::now();
            let t = Instant::now();
            let decoded = decode_frame(&req_bytes).and_then(|f| Request::from_frame(&f));
            let end = Instant::now();
            let a = a0.since();
            wire_calls.calls += a.calls;
            wire_calls.bytes += a.bytes;
            t_req_dec.push(us(t, end));
            tr.record(
                "wire.req_decode",
                "server.wire",
                id,
                s.roundtrip_span,
                t,
                end,
            );
            match decoded {
                Ok(r) if r == request => ok += 1,
                Ok(_) => report.mismatch("replay", "request changed across the wire codec".into()),
                Err(e) => report.failed("replay", format!("request decode: {e}")),
            }

            // Registry read path: a warm call makes the tenant resident,
            // so the timed call is a hit.
            let _ = registry.transform(&s.tenant, &s.batch);
            let a0 = alloc::now();
            let t = Instant::now();
            let hit = registry.transform(&s.tenant, &s.batch);
            let end = Instant::now();
            let a = a0.since();
            reg_allocs.push(a.calls as f64);
            reg_alloc_bytes.push(a.bytes as f64);
            t_hit.push(us(t, end));
            let reg_span = tr.record(
                "registry.transform",
                "server.registry",
                id,
                s.roundtrip_span,
                t,
                end,
            );
            match hit {
                Ok((got, oor)) => match same_release(&got, &s.want) {
                    Ok(()) if oor == s.out_of_range_rows => ok += 1,
                    Ok(()) => report.mismatch("replay", "registry drift count differs".into()),
                    Err(e) => report.mismatch("replay", format!("registry transform: {e}")),
                },
                Err(e) => report.failed("replay", format!("registry transform: {e}")),
            }

            // The session the registry wraps.
            let session = session_for(&mut sessions, keys, &s.tenant);
            let t = Instant::now();
            let direct = session.transform_batch(&s.batch);
            let end = Instant::now();
            t_session.push(us(t, end));
            tr.record(
                "session.transform_batch",
                "core.session",
                id,
                reg_span,
                t,
                end,
            );
            match direct {
                Ok(b) => match same_release(&b.released, &s.want) {
                    Ok(()) => ok += 1,
                    Err(e) => report.mismatch("replay", format!("session transform: {e}")),
                },
                Err(e) => report.failed("replay", format!("session transform: {e}")),
            }
            let _ = session.transform_batch_into(&s.batch, &mut out);
            let a0 = alloc::now();
            let into = session.transform_batch_into(&s.batch, &mut out);
            let a = a0.since();
            sess_allocs.push(a.calls as f64);
            sess_alloc_bytes.push(a.bytes as f64);
            if into.is_err() || !same_bits(&out, s.want.matrix()) {
                report.mismatch(
                    "replay",
                    "transform_batch_into differs from the release".into(),
                );
            } else {
                ok += 1;
            }

            let a0 = alloc::now();
            let t = Instant::now();
            let resp_bytes = encode_frame(&response.to_frame().with_request_id(id));
            let end = Instant::now();
            let a = a0.since();
            wire_calls.calls += a.calls;
            wire_calls.bytes += a.bytes;
            t_resp_enc.push(us(t, end));
            let resp_enc_span = tr.record(
                "wire.resp_encode",
                "server.wire",
                id,
                s.roundtrip_span,
                t,
                end,
            );
            let rbody = &resp_bytes[..resp_bytes.len() - 4];
            let t = Instant::now();
            let crc = crc32(black_box(rbody));
            let end = Instant::now();
            crc_s += end.duration_since(t).as_secs_f64();
            crc_bytes += rbody.len();
            tr.record("codec.crc32", "linalg.codec", id, resp_enc_span, t, end);
            if crc.to_le_bytes() != resp_bytes[resp_bytes.len() - 4..] {
                report.mismatch("replay", "CRC-32 disagrees with the frame trailer".into());
            }

            let a0 = alloc::now();
            let t = Instant::now();
            let decoded = decode_frame(&resp_bytes).and_then(|f| Response::from_frame(&f));
            let end = Instant::now();
            let a = a0.since();
            wire_calls.calls += a.calls;
            wire_calls.bytes += a.bytes;
            t_resp_dec.push(us(t, end));
            tr.record(
                "wire.resp_decode",
                "server.wire",
                id,
                s.roundtrip_span,
                t,
                end,
            );
            match decoded {
                Ok(r) if r == response => ok += 1,
                Ok(_) => report.mismatch("replay", "response changed across the wire codec".into()),
                Err(e) => report.failed("replay", format!("response decode: {e}")),
            }
            wire_allocs.push(wire_calls.calls as f64);
            wire_alloc_bytes.push(wire_calls.bytes as f64);

            // Registry write path and miss path, on a one-slot registry:
            // registering "b" evicts "a", so the transform of "a" decodes.
            let bytes = &keys[&s.tenant];
            let (copy_a, copy_b) = (bytes.clone(), bytes.clone());
            let t = Instant::now();
            let loaded = miss_registry.load_key("a", copy_a);
            let end = Instant::now();
            t_load.push(us(t, end));
            tr.record("registry.load_key", "server.registry", id, 0, t, end);
            let reloaded = miss_registry.load_key("b", copy_b);
            match (&loaded, &reloaded) {
                (Ok((method, n)), Ok(_)) if method == "rbt" && *n == s.batch.n_cols() => ok += 1,
                (Ok(_), Ok(_)) => report.mismatch("replay", "load_key named another method".into()),
                (Err(e), _) | (_, Err(e)) => report.failed("replay", format!("load_key: {e}")),
            }
            let t = Instant::now();
            let miss = miss_registry.transform("a", &s.batch);
            let end = Instant::now();
            t_miss.push(us(t, end));
            let miss_span = tr.record("registry.transform_miss", "server.registry", id, 0, t, end);
            match miss {
                Ok((got, _)) if same_release(&got, &s.want).is_ok() => ok += 1,
                Ok(_) => report.mismatch("replay", "registry miss path differs".into()),
                Err(e) => report.failed("replay", format!("registry miss: {e}")),
            }
            let t = Instant::now();
            let fitted = decode_fitted(bytes);
            let end = Instant::now();
            t_decode.push(us(t, end));
            tr.record("decode_fitted", "api", id, miss_span, t, end);
            match fitted {
                Ok(f) if f.method_name() == "rbt" => ok += 1,
                Ok(_) => report.mismatch("replay", "key decoded as another method".into()),
                Err(e) => report.failed("replay", format!("decode_fitted: {e}")),
            }
        }
        if last {
            tracer.absorb(tr);
            break;
        }
        // Allocation counts are kept from the last round only.
        for v in [
            &mut wire_allocs,
            &mut wire_alloc_bytes,
            &mut reg_allocs,
            &mut reg_alloc_bytes,
            &mut sess_allocs,
            &mut sess_alloc_bytes,
        ] {
            v.clear();
        }
        round += 1;
    }
    report.ok("replay", ok);

    let n = t_req_enc.len();
    report.set_n(
        "codec.crc32_mb_s",
        crc_bytes as f64 / crc_s / 1e6,
        "MB/s",
        2 * n,
    );
    let req_enc = median(&t_req_enc);
    let req_dec = median(&t_req_dec);
    let resp_enc = median(&t_resp_enc);
    let resp_dec = median(&t_resp_dec);
    let hit = median(&t_hit);
    report.set_n("wire.req_encode_us", req_enc, "us", n);
    report.set_n("wire.req_decode_us", req_dec, "us", n);
    report.set_n("wire.resp_encode_us", resp_enc, "us", n);
    report.set_n("wire.resp_decode_us", resp_dec, "us", n);
    report.set_n(
        "wire.allocs_per_req",
        median(&wire_allocs),
        "count",
        wire_allocs.len(),
    );
    report.set_n(
        "wire.alloc_bytes_per_req",
        median(&wire_alloc_bytes),
        "B",
        wire_alloc_bytes.len(),
    );
    report.set_n("registry.transform_hit_us", hit, "us", n);
    report.set_n("registry.transform_miss_us", median(&t_miss), "us", n);
    report.set_n("registry.load_key_us", median(&t_load), "us", n);
    report.set_n(
        "registry.allocs_per_transform",
        median(&reg_allocs),
        "count",
        reg_allocs.len(),
    );
    report.set_n(
        "registry.alloc_bytes_per_transform",
        median(&reg_alloc_bytes),
        "B",
        reg_alloc_bytes.len(),
    );
    report.set_n("api.decode_fitted_us", median(&t_decode), "us", n);
    report.set_n("session.transform_us", median(&t_session), "us", n);
    report.set_n(
        "session.allocs_per_batch",
        median(&sess_allocs),
        "count",
        sess_allocs.len(),
    );
    report.set_n(
        "session.alloc_bytes_per_batch",
        median(&sess_alloc_bytes),
        "B",
        sess_alloc_bytes.len(),
    );
    req_enc + req_dec + hit + resp_enc + resp_dec
}

/// Streams `batches` through a session at the default thread count and at
/// one thread, alternating batch by batch for at least `budget_s` seconds.
/// Reports `pool.stream_speedup` and `stream.gb_s_over_memcpy`.
pub fn pool_probe(
    report: &mut Report,
    tracer: &mut Tracer,
    key: &[u8],
    batches: &[Dataset],
    memcpy_gb_s: f64,
    budget_s: f64,
) {
    let Ok(mut pooled) = ReleaseSession::from_bytes(key) else {
        report.failed("probe", "session key does not decode".into());
        return;
    };
    let mut serial = pooled.clone().with_threads(1);
    let (mut out_p, mut out_s) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let (mut t_pool, mut t_serial, mut rows, mut bytes) = (0f64, 0f64, 0usize, 0usize);
    let mut batches_run = 0usize;
    let started = Instant::now();
    let mut ok = 0;
    while started.elapsed().as_secs_f64() < budget_s || rows == 0 {
        for b in batches {
            let t = Instant::now();
            let r1 = pooled.transform_batch_into(b, &mut out_p);
            let mid = Instant::now();
            let r2 = serial.transform_batch_into(b, &mut out_s);
            let end = Instant::now();
            let (dp, ds) = ((mid - t).as_secs_f64(), (end - mid).as_secs_f64());
            t_pool += dp;
            t_serial += ds;
            rows += b.n_rows();
            bytes += 2 * 8 * b.n_rows() * b.n_cols();
            // Spans for the first pass only: the loop may run the batches
            // many thousands of times.
            if batches_run < batches.len() {
                let span = tracer.record("pool.transform_batch_into", "linalg.pool", 0, 0, t, mid);
                tracer.record(
                    "session.transform_batch_into_1t",
                    "core.session",
                    0,
                    span,
                    mid,
                    end,
                );
            }
            batches_run += 1;
            if r1.is_err() || r2.is_err() || !same_bits(&out_p, &out_s) {
                report.mismatch("probe", "pooled and one-thread streams differ".into());
            } else {
                ok += 1;
            }
        }
    }
    report.ok("probe", ok);
    report.set_n(
        "pool.stream_speedup",
        t_serial / t_pool,
        "ratio",
        batches_run,
    );
    report.set_n(
        "stream.gb_s_over_memcpy",
        bytes as f64 / t_pool / 1e9 / memcpy_gb_s,
        "ratio",
        batches_run,
    );
}
