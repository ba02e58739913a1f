//! Multi-tenant serving: isolation, admission, poison handling.
//!
//! The serving layer's contract is that multiplexing changes *nothing*
//! about answers: every admitted tenant's final output is byte-identical
//! to running its query solo over the same records, no matter how many
//! other tenants share the governor pool and its shed pressure, or how
//! many poison records the stream carries.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use onepass::prelude::*;
use onepass_groupby::SumAgg;
use onepass_runtime::serve::{dump_final_answers, DEFAULT_INGEST};
use onepass_runtime::stream::SessionOptions;
use onepass_workloads::serving::{
    ingest_family, standard_catalog, CatalogConfig, CLICKS_INGEST, DOCS_INGEST,
};
use onepass_workloads::tenantgen::{assign_tenants, TenantGenConfig};
use onepass_workloads::{ClickGen, ClickGenConfig, DocGen, DocGenConfig};

fn click_records(n: usize) -> Vec<Vec<u8>> {
    ClickGen::new(ClickGenConfig::default()).text_records(n)
}

fn doc_records(n: usize) -> Vec<Vec<u8>> {
    DocGen::new(DocGenConfig::default()).records(n)
}

/// Run `query` solo (no governor, no multiplexing) over `records` and
/// dump its finals — the reference the serving layer must match.
fn solo_dump(catalog: &QueryCatalog, query: &str, records: &[Vec<u8>]) -> String {
    let compiled = catalog.resolve(query).expect("known query");
    let mut session = TenantSession::open(
        "solo",
        query,
        &compiled,
        &SessionOptions::default(),
        DlqConfig::default(),
    )
    .expect("open solo session");
    for chunk in records.chunks(512) {
        session.feed(chunk).expect("solo feed");
    }
    let close = session.close().expect("solo close");
    dump_final_answers(&close.answers)
}

#[test]
fn served_tenants_match_solo_batch_runs_across_all_queries() {
    let catalog = standard_catalog(CatalogConfig::default());
    let clicks = click_records(6_000);
    let docs = doc_records(80);

    let config = ServeConfig {
        pool_bytes: 8 << 20,
        shards: 3,
        ..ServeConfig::default()
    };
    let server = Server::start(config, catalog.clone(), None).expect("start server");

    // Two tenants per query so shards multiplex unlike queries.
    let mut handles = Vec::new();
    for round in 0..2 {
        for query in catalog.names() {
            let id = format!("t-{query}-{round}");
            handles.push(server.subscribe(&id, &query).expect("admit"));
        }
    }
    for chunk in clicks.chunks(512) {
        server
            .feed(CLICKS_INGEST, chunk.to_vec())
            .expect("feed clicks");
    }
    for chunk in docs.chunks(512) {
        server.feed(DOCS_INGEST, chunk.to_vec()).expect("feed docs");
    }
    server.close().expect("close server");

    for h in handles {
        let (_earlies, close) = h.wait_final().expect("final answers");
        let records: &[Vec<u8>] = if ingest_family(&h.query) == DOCS_INGEST {
            &docs
        } else {
            &clicks
        };
        assert_eq!(
            dump_final_answers(&close.answers),
            solo_dump(&catalog, &h.query, records),
            "tenant {} ({}) diverged from its solo run",
            h.id,
            h.query
        );
        assert_eq!(close.records_in, records.len() as u64);
        assert_eq!(close.dlq_poisoned, 0);
    }
}

#[test]
fn early_answers_surface_before_close() {
    let catalog = standard_catalog(CatalogConfig::default());
    let clicks = click_records(8_000);
    let server = Server::start(ServeConfig::default(), catalog, None).expect("start");
    let h = server
        .subscribe("early-bird", "page-frequency")
        .expect("admit");
    for chunk in clicks.chunks(1024) {
        server.feed(CLICKS_INGEST, chunk.to_vec()).expect("feed");
    }
    server.close().expect("close");
    let mut saw_early = false;
    loop {
        match h.events().recv().expect("event") {
            TenantEvent::Early(a) => saw_early = saw_early || !a.is_empty(),
            TenantEvent::Final(_) => break,
            TenantEvent::Error(e) => panic!("tenant failed: {e}"),
        }
    }
    assert!(
        saw_early,
        "frequent-key backend should emit early answers mid-stream"
    );
}

#[test]
fn admission_rejects_beyond_capacity_and_frees_seats_on_close() {
    let catalog = standard_catalog(CatalogConfig::default());
    let mut config = ServeConfig::default();
    config.admission.max_tenants = 2;
    config.admission.max_waiting = 0;
    let server = Server::start(config, catalog, None).expect("start");
    let _a = server.subscribe("a", "page-frequency").expect("admit a");
    let _b = server.subscribe("b", "per-user-count").expect("admit b");
    let err = server.subscribe("c", "page-frequency").unwrap_err();
    assert!(
        err.to_string().contains("rejected"),
        "expected rejection, got: {err}"
    );
    assert_eq!(server.active_tenants(), 2);
    server.close().expect("close");
    assert_eq!(server.active_tenants(), 0);
}

/// A query whose map panics on records tagged `POISON` — permanently, or
/// only for the first `transient` attempts per record (0 = always).
fn poisonable_catalog(transient: u32) -> QueryCatalog {
    let mut cat = QueryCatalog::new();
    let attempts = Arc::new(AtomicUsize::new(0));
    cat.register("poisonable-count", move || {
        let attempts = Arc::clone(&attempts);
        let map = move |record: &[u8], out: &mut dyn MapEmitter| {
            if record.starts_with(b"POISON") {
                if transient == 0 {
                    panic!("permanent poison");
                }
                let n = attempts.fetch_add(1, Ordering::SeqCst);
                if (n as u32) < transient {
                    panic!("transient poison");
                }
            }
            let key = record.split(|&b| b == b' ').next().unwrap_or(b"?");
            out.emit(key, &1u64.to_le_bytes());
        };
        Ok(StreamingQuery::single(
            JobSpec::builder("poisonable-count")
                .map_fn(Arc::new(map))
                .aggregate(Arc::new(SumAgg))
                .reducers(2)
                .preset_onepass()
                .build()?,
        ))
    });
    cat
}

#[test]
fn permanent_poison_is_buried_and_leaves_clean_answers() {
    let catalog = poisonable_catalog(0);
    let server = Server::start(ServeConfig::default(), catalog.clone(), None).expect("start");
    let h = server
        .subscribe("victim", "poisonable-count")
        .expect("admit");
    let mut records: Vec<Vec<u8>> = (0..500u32)
        .map(|i| format!("k{} x", i % 7).into_bytes())
        .collect();
    records.insert(100, b"POISON one".to_vec());
    records.insert(300, b"POISON two".to_vec());
    server.feed(DEFAULT_INGEST, records.clone()).expect("feed");
    server.close().expect("close");
    let (_earlies, close) = h.wait_final().expect("final");

    // The poisons died; the clean records all counted.
    assert_eq!(close.dlq_poisoned, 2);
    assert_eq!(close.dlq_dead, 2);
    assert_eq!(close.dlq_recovered, 0);
    assert_eq!(close.records_in, 500);
    let clean: Vec<Vec<u8>> = records
        .iter()
        .filter(|r| !r.starts_with(b"POISON"))
        .cloned()
        .collect();
    assert_eq!(
        dump_final_answers(&close.answers),
        solo_dump(&catalog, "poisonable-count", &clean)
    );
}

#[test]
fn transient_poison_recovers_and_is_counted() {
    // Panics on the first two attempts (the batch-level feed and the
    // per-record isolation pass); the DLQ retry sweep recovers it.
    let catalog = poisonable_catalog(2);
    let server = Server::start(ServeConfig::default(), catalog, None).expect("start");
    let h = server
        .subscribe("flaky", "poisonable-count")
        .expect("admit");
    let mut records: Vec<Vec<u8>> = (0..200u32)
        .map(|i| format!("k{}", i % 5).into_bytes())
        .collect();
    records.insert(50, b"POISON flaky".to_vec());
    server.feed(DEFAULT_INGEST, records).expect("feed");
    server.close().expect("close");
    let (_earlies, close) = h.wait_final().expect("final");
    assert_eq!(close.dlq_poisoned, 1);
    assert_eq!(close.dlq_recovered, 1);
    assert_eq!(close.dlq_dead, 0);
    // The recovered record's key appears in the finals.
    let dump = dump_final_answers(&close.answers);
    assert!(
        dump.contains("POISON\t"),
        "recovered record must contribute its key: {dump}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole isolation property: N concurrent tenants over a
    /// shared governor pool under shed pressure, with seeded poison in
    /// the stream, all produce finals byte-identical to their solo runs.
    #[test]
    fn tenant_isolation_under_pressure_and_poison(
        tenants in 2usize..5,
        poison_every in 40usize..90,
        records_n in 2_000usize..4_000,
    ) {
        let catalog = standard_catalog(CatalogConfig::default());
        let clicks = click_records(records_n);

        // A tiny pool forces the governor over high water, so sheds and
        // backpressure actually engage.
        let config = ServeConfig {
            pool_bytes: 256 * 1024,
            shards: 2,
            ..ServeConfig::default()
        };
        let server = Server::start(config, catalog.clone(), None).expect("start");

        let queries: Vec<String> = vec![
            "page-frequency".into(),
            "per-user-count".into(),
            "sessionization".into(),
            "top-k".into(),
        ];
        let specs = assign_tenants(tenants, &queries, &TenantGenConfig::default());
        let handles: Vec<TenantHandle> = specs
            .iter()
            .map(|t| server.subscribe(&t.id, &t.query).expect("admit"))
            .collect();

        // Click maps skip malformed records, so poison here exercises the
        // graceful-skip path inside every tenant at once.
        let mut stream = clicks.clone();
        let mut i = poison_every;
        while i < stream.len() {
            stream.insert(i, b"\xff\xfenot a click".to_vec());
            i += poison_every;
        }
        for chunk in stream.chunks(256) {
            server.feed(CLICKS_INGEST, chunk.to_vec()).expect("feed");
        }
        server.close().expect("close");

        for (spec, h) in specs.iter().zip(handles) {
            let (_earlies, close) = h.wait_final().expect("final");
            // Malformed clicks are skipped by the map, so the solo
            // reference over the *clean* stream must match (the poisons
            // emit nothing).
            prop_assert_eq!(
                dump_final_answers(&close.answers),
                solo_dump(&catalog, &spec.query, &stream),
                "tenant {} ({}) diverged",
                &spec.id, &spec.query
            );
        }
    }
}
