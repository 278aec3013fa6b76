"""The full six-week study (§IV + §V), end to end.

:class:`SixWeekStudy` runs the paper's entire measurement campaign
against a :class:`~repro.world.internet.SimulatedInternet`:

* a warm-up period so provider databases reach the steady state a
  scanner would find in the wild (the paper's week-1 scan already saw
  ~1,500 hidden records, i.e. weeks of accumulated departures);
* daily A/CNAME/NS collection with a cache-purged recursive resolver
  (§IV-B-1), status determination (Table III) and behaviour diffing
  (Table IV) with multi-CDN filtering;
* weekly Cloudflare direct-query sweeps from five vantage points and
  Incapsula CNAME tracking, both feeding the Fig. 8 filter pipeline;
* the Table V origin-IP experiment and the Fig. 5/9 analyses.

The result object carries the measured artifact for every table and
figure, plus ground-truth comparisons that the paper could never make.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..clock import DAYS_PER_WEEK
from ..dps.portal import ReroutingMethod
from ..markers import merge_point, pure_function, shard_entry
from ..net.geo import PAPER_VANTAGE_REGIONS
from ..world.admin import BehaviorEvent, BehaviorKind
from ..world.internet import SimulatedInternet
from .behaviors import BehaviorDetector, MeasuredBehavior, MultiCdnFilter
from .collector import DailySnapshot, DnsRecordCollector
from .exposure import ExposureSummary, ExposureTimeline
from .htmlverify import HtmlVerifier
from .ip_change import IpChangeExperiment, IpChangeResult
from .matching import ProviderMatcher
from .pause import PauseAnalyzer
from .pipeline import FilterPipeline, PipelineReport
from .residual_scan import CloudflareScanner, IncapsulaScanner, NameserverHarvest
from .status import DpsObservation, StatusDeterminer

__all__ = [
    "StudyConfig",
    "StudyReport",
    "StudyRuntime",
    "SixWeekStudy",
    "scan_due",
    "shard_bounds",
]


@pure_function
def shard_bounds(total: int, shard_index: int, shard_count: int) -> "tuple[int, int]":
    """The half-open ``[start, end)`` slice of shard ``shard_index``.

    Contiguous balanced partition: every shard gets ``total //
    shard_count`` items and the first ``total % shard_count`` shards get
    one extra, so the shards cover the population exactly once, in
    order.  Pure arithmetic — the coordinator and every worker compute
    the same bounds without coordination.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index {shard_index} out of range for {shard_count} shard(s)"
        )
    base, extra = divmod(total, shard_count)
    start = shard_index * base + min(shard_index, extra)
    end = start + base + (1 if shard_index < extra else 0)
    return start, end


@dataclass
class StudyConfig:
    """Campaign parameters (defaults follow the paper)."""

    #: Days of pre-study world dynamics.  Long enough that provider
    #: databases hold a steady-state population of stale records across
    #: the plan-mixed purge horizons (28-56 days), as the wild would.
    warmup_days: int = 56
    study_days: int = 42
    scan_every_days: int = DAYS_PER_WEEK
    vantage_regions: List[str] = field(
        default_factory=lambda: list(PAPER_VANTAGE_REGIONS)
    )
    multicdn_flip_threshold: int = 3
    #: Collect Table V / pause / Fig. 3 data (disable to run §V only).
    run_usage_dynamics: bool = True
    #: Run the §V weekly scans (disable to run §IV only).
    run_residual_scans: bool = True
    #: HTML-verification strictness: "title-and-meta" (the paper's
    #: comparison, a strict lower bound) or "title-only" (tolerant of
    #: dynamic meta; admits false positives) — the ablation DESIGN.md
    #: calls out.
    verifier_strictness: str = "title-and-meta"


@pure_function
def scan_due(config: StudyConfig, day_index: int) -> bool:
    """Whether study day ``day_index`` carries a weekly §V scan.

    The one scan-day rule: the monolithic day loop and the shard
    coordinator's lockstep loop both ask it.
    """
    return config.run_residual_scans and day_index % config.scan_every_days == 0


@dataclass
class StudyReport:
    """Everything the campaign measured, organised by paper artifact."""

    config: StudyConfig
    population_size: int
    scale_factor: float

    # §IV raw series
    snapshots: List[DailySnapshot] = field(default_factory=list)
    observations: List[Dict[str, DpsObservation]] = field(default_factory=list)
    behaviors: List[MeasuredBehavior] = field(default_factory=list)
    multicdn_flagged: Set[str] = field(default_factory=set)

    # Fig. 2 / §IV-B-2
    adoption_by_provider: Dict[str, float] = field(default_factory=dict)
    overall_adoption_rate: float = 0.0
    top_sites_adoption_rate: float = 0.0
    #: Relative adoption growth over the study, measured against the
    #: first day with a nonzero adopter count.  ``None`` means the
    #: baseline never existed (no site adopted on any day) — distinct
    #: from ``0.0``, which means adoption genuinely did not grow.
    adoption_growth: Optional[float] = None

    # Fig. 3 / Table IV
    behavior_daily_counts: Dict[int, Dict[BehaviorKind, int]] = field(default_factory=dict)
    behavior_averages: Dict[BehaviorKind, float] = field(default_factory=dict)

    # Fig. 5
    pause_durations_overall: List[int] = field(default_factory=list)
    pause_durations_by_provider: Dict[str, List[int]] = field(default_factory=dict)

    # Fig. 6
    cloudflare_ns_share: float = 0.0
    cloudflare_cname_share: float = 0.0

    # Fig. 7
    harvested_nameservers: int = 0
    scan_pop_query_counts: Dict[str, int] = field(default_factory=dict)

    # Table V
    ip_change: Optional[IpChangeResult] = None

    # Table VI / Fig. 8 / Fig. 9
    cloudflare_weekly: List[PipelineReport] = field(default_factory=list)
    incapsula_weekly: List[PipelineReport] = field(default_factory=list)
    cloudflare_exposure: Optional[ExposureSummary] = None

    # Degradation bookkeeping (all empty/zero on a fault-free run):
    # per-day UNMEASURED site counts, the days that were partial, weekly
    # Cloudflare sweeps skipped because no nameserver address resolved,
    # hostnames per week whose sweep was throttled from every vantage
    # point (partial scans — unmeasured, never recorded as absent), and
    # the nameservers still quarantined when the campaign ended.
    unmeasured_daily_counts: List[int] = field(default_factory=list)
    partial_days: List[int] = field(default_factory=list)
    skipped_scan_weeks: List[int] = field(default_factory=list)
    partial_scan_weeks: Dict[int, int] = field(default_factory=dict)
    quarantined_nameservers: List[str] = field(default_factory=list)

    # Attack plane (all empty on an attack-free run): the campaign's
    # event schedule and the per-event / per-wave counters, copied from
    # the world's attack plane at finalise.
    attack_profile: Optional[str] = None
    attack_events: List[Dict[str, object]] = field(default_factory=list)
    attack_tallies: Dict[str, int] = field(default_factory=dict)

    @property
    def total_unmeasured(self) -> int:
        """Site-days lost to exhausted retry budgets across the study."""
        return sum(self.unmeasured_daily_counts)

    # Ground truth (unavailable to the paper; used for validation)
    ground_truth_events: List[BehaviorEvent] = field(default_factory=list)

    # -- Table VI totals ------------------------------------------------

    @staticmethod
    @merge_point
    def _totals(weekly: List[PipelineReport]) -> Dict[str, int]:
        hidden: Set[str] = set()
        verified: Set[str] = set()
        for report in weekly:
            hidden.update(report.hidden_websites())  # repro: allow[REP061] -- folds into sets and reports only their sizes; arrival order cannot reach the output
            verified.update(report.verified_websites())
        return {"hidden": len(hidden), "verified": len(verified)}

    @property
    def cloudflare_totals(self) -> Dict[str, int]:
        """Distinct hidden records / verified origins across all weeks."""
        return self._totals(self.cloudflare_weekly)

    @property
    def incapsula_totals(self) -> Dict[str, int]:
        """Distinct hidden records / verified origins across all weeks."""
        return self._totals(self.incapsula_weekly)

    def ground_truth_daily_average(self) -> Dict[BehaviorKind, float]:
        """Planted behaviour rates over the study window."""
        totals = {kind: 0 for kind in BehaviorKind}
        for event in self.ground_truth_events:
            totals[event.kind] += 1
        days = max(1, self.config.study_days - 1)
        return {kind: totals[kind] / days for kind in totals}


@dataclass
class StudyRuntime:
    """The campaign's complete mutable loop state, made explicit.

    Everything :meth:`SixWeekStudy.run_day` reads or writes between
    days lives here — the partially filled report, the persistent
    measurement objects, and the ``day_index`` cursor (the next study
    day to run).  Making the loop state a first-class object is what
    lets the checkpoint plane serialize a run at a barrier and a resumed
    process rebuild the exact same trajectory.
    """

    report: StudyReport
    study_start_day: int
    day_index: int
    hostnames: List[str]
    collection_resolver: object
    collector: DnsRecordCollector
    verifier: HtmlVerifier
    harvest: NameserverHarvest
    exposure: ExposureTimeline
    vantage_clients: List
    scan_pop_totals: Dict[str, int]
    incap_scanner: Optional[IncapsulaScanner] = None
    cf_pipeline: Optional[FilterPipeline] = None
    incap_pipeline: Optional[FilterPipeline] = None
    #: Which slice of the population this runtime measures.  A
    #: monolithic run is the degenerate shard 0-of-1 with offset 0;
    #: shard workers carry their index so the weekly scan can rotate
    #: vantage points by *global* hostname position.
    shard_index: int = 0
    shard_count: int = 1
    shard_offset: int = 0
    #: Scan-time harvest override.  The weekly Cloudflare sweep needs
    #: the nameservers harvested across the *whole* population (the
    #: paper's 391 names came from every delegation observed, §V-A-1);
    #: a shard's own harvest covers only its slice.  The shard runner
    #: sets this to the merged, broadcast harvest before each scan day;
    #: ``None`` (the monolithic case) falls back to ``harvest``.
    scan_harvest: Optional[NameserverHarvest] = None

    @property
    def finished(self) -> bool:
        """True once every study day has run."""
        return self.day_index >= self.report.config.study_days


class SixWeekStudy:
    """Runs the whole campaign."""

    def __init__(
        self, world: SimulatedInternet, config: Optional[StudyConfig] = None
    ) -> None:
        self.world = world
        self.config = config or StudyConfig()
        self.matcher = ProviderMatcher(world.specs, world.routeviews)
        shared_ips = frozenset(
            ip
            for provider in world.providers.values()
            for ip in provider.offnet_edge_ips
        )
        self.determiner = StatusDeterminer(self.matcher, shared_ips)

    # ------------------------------------------------------------------

    def run(self) -> StudyReport:
        """Execute warm-up, the daily campaign, and the analyses."""
        runtime = self.begin()
        while not runtime.finished:
            self.run_day(runtime)
        return self.finalise(runtime)

    def begin(self, shard_index: int = 0, shard_count: int = 1) -> StudyRuntime:
        """Warm the world up and build the campaign's measurement state.

        Returns the :class:`StudyRuntime` positioned at day 0 (checkpoint
        barrier 0: post-warmup, nothing measured yet).

        With ``shard_count > 1`` the runtime measures only shard
        ``shard_index``'s contiguous slice of the population (see
        :func:`shard_bounds`); the world itself is always the full one —
        its dynamics are global and measurement-independent, so every
        shard replays the identical world and observes its own sites.
        """
        world, config = self.world, self.config
        start, end = shard_bounds(len(world.population), shard_index, shard_count)
        report = StudyReport(
            config=config,
            population_size=len(world.population),
            scale_factor=world.config.scale_factor,
        )

        world.engine.run_days(config.warmup_days)

        collection_resolver = world.make_resolver()
        verifier = HtmlVerifier(
            world.http_client(config.vantage_regions[0]),
            strictness=config.verifier_strictness,
        )

        incap_scanner = None
        cf_pipeline = incap_pipeline = None
        if config.run_residual_scans and "incapsula" in world.providers:
            incap_scanner = IncapsulaScanner(world.make_resolver(), self.matcher)
            incap_pipeline = FilterPipeline(
                world.provider("incapsula").prefixes, world.make_resolver(), verifier
            )
        if config.run_residual_scans and "cloudflare" in world.providers:
            cf_pipeline = FilterPipeline(
                world.provider("cloudflare").prefixes, world.make_resolver(), verifier
            )

        hostnames = [str(site.www) for site in world.population]
        return StudyRuntime(
            report=report,
            study_start_day=world.clock.day,
            day_index=0,
            hostnames=hostnames[start:end],
            collection_resolver=collection_resolver,
            collector=DnsRecordCollector(collection_resolver),
            verifier=verifier,
            harvest=NameserverHarvest(),
            exposure=ExposureTimeline(),
            vantage_clients=[
                world.dns_client(region) for region in config.vantage_regions
            ],
            scan_pop_totals={},
            incap_scanner=incap_scanner,
            cf_pipeline=cf_pipeline,
            incap_pipeline=incap_pipeline,
            shard_index=shard_index,
            shard_count=shard_count,
            shard_offset=start,
        )

    @shard_entry
    def run_day(self, runtime: StudyRuntime) -> None:
        """One study day: collect, observe, scan (weekly), advance.

        Advances ``runtime.day_index`` and the world by one day; calling
        it ``config.study_days`` times from a fresh :meth:`begin` runtime
        reproduces the monolithic loop exactly.  The three phases are
        exposed separately (:meth:`collect_day`, :meth:`scan_day`,
        :meth:`advance_day`) so the shard runner can interpose the
        harvest broadcast between collection and the weekly scan; this
        method is their exact composition.
        """
        self.collect_day(runtime)
        if scan_due(self.config, runtime.day_index):
            self.scan_day(runtime)
        self.advance_day(runtime)

    def collect_day(self, runtime: StudyRuntime) -> None:
        """Phase 1: daily A/CNAME/NS collection over the shard's slice."""
        report = runtime.report
        day = self.world.clock.day
        snapshot = runtime.collector.collect(runtime.hostnames, day)
        report.snapshots.append(snapshot)
        report.observations.append(
            {
                www: self.determiner.observe(domain_snapshot)
                for www, domain_snapshot in snapshot.domains.items()
            }
        )
        report.unmeasured_daily_counts.append(snapshot.unmeasured_count)
        if snapshot.is_partial:
            report.partial_days.append(day)
        runtime.harvest.ingest([snapshot])
        if runtime.incap_scanner is not None:
            runtime.incap_scanner.ingest([snapshot])

    def scan_day(self, runtime: StudyRuntime) -> None:
        """Phase 2 (weekly): the §V residual-resolution sweeps."""
        world, config = self.world, self.config
        report = runtime.report
        day_index = runtime.day_index
        cf_provider = world.providers.get("cloudflare")
        week = day_index // config.scan_every_days
        harvest = (
            runtime.scan_harvest
            if runtime.scan_harvest is not None
            else runtime.harvest
        )
        ns_ips: List = []
        if runtime.cf_pipeline is not None:
            if len(harvest) > 0:
                ns_ips = harvest.resolve_addresses(world.make_resolver())
            if not ns_ips:
                # The sweep cannot run this week — either nothing has
                # been harvested yet (no cloudflare delegation observed
                # before the first scan day) or every harvested name
                # failed to resolve (outage / exhausted budget).  Both
                # paths record the skip; silently dropping the week
                # made the weekly series lie about its own coverage.
                report.skipped_scan_weeks.append(week)
        if ns_ips:
            scanner = CloudflareScanner(
                ns_ips,
                runtime.vantage_clients,
                rng=world.rng.fork(f"cf-scan-week-{week}"),
            )
            fleet = cf_provider.customer_fleet if cf_provider else None
            before = fleet.pop_query_counts() if fleet else {}
            retrieved = scanner.scan(
                runtime.hostnames, start_index=runtime.shard_offset
            )
            if scanner.queries_throttled:
                # Provider defenses refused part of this week's sweep
                # from every vantage point: a *partial* scan.  The count
                # is recorded so the weekly series carries its own
                # coverage; the throttled hostnames simply go unmeasured
                # this week — never recorded as departed.
                report.partial_scan_weeks[week] = (
                    report.partial_scan_weeks.get(week, 0)
                    + scanner.queries_throttled
                )
            if fleet is not None:
                for pop, count in fleet.pop_query_counts().items():
                    delta = count - before.get(pop, 0)
                    if delta:
                        runtime.scan_pop_totals[pop] = (
                            runtime.scan_pop_totals.get(pop, 0) + delta
                        )
            weekly = runtime.cf_pipeline.run(retrieved, "cloudflare", week)
            report.cloudflare_weekly.append(weekly)
            runtime.exposure.record_week(weekly.verified_websites())
        if runtime.incap_scanner is not None and runtime.incap_pipeline is not None:
            retrieved = runtime.incap_scanner.scan()
            report.incapsula_weekly.append(
                runtime.incap_pipeline.run(retrieved, "incapsula", week)
            )

    def advance_day(self, runtime: StudyRuntime) -> None:
        """Phase 3: advance the world and the day cursor."""
        self.world.engine.run_day()
        runtime.day_index = runtime.day_index + 1

    def finalise(self, runtime: StudyRuntime) -> StudyReport:
        """The post-loop analyses, turning the runtime into the report."""
        world, config = self.world, self.config
        report = runtime.report
        report.quarantined_nameservers = [
            address
            for address, _, _ in runtime.collection_resolver.quarantine.snapshot()
        ]
        attacks = world.fabric.attack_plane
        if attacks is not None:
            report.attack_profile = attacks.name
            report.attack_events = [event.as_dict() for event in attacks.events]
            report.attack_tallies = {
                key: attacks.tallies[key] for key in sorted(attacks.tallies)
            }
        self._analyse_usage_dynamics(
            report, runtime.study_start_day, runtime.verifier
        )
        self._analyse_adoption(report)
        if config.run_residual_scans:
            report.cloudflare_exposure = runtime.exposure.summary()
            report.harvested_nameservers = len(runtime.harvest)
            # Canonical (sorted) key order: the runtime dict's insertion
            # order is first-seen order, which depends on how the
            # campaign executed (fresh, resumed, or merged from shards)
            # even though the totals themselves never do.
            report.scan_pop_query_counts = {
                pop: runtime.scan_pop_totals[pop]
                for pop in sorted(runtime.scan_pop_totals)
            }
        # The observable ground-truth window.  Snapshots cover days
        # [start, start + study_days); an event stamped on day d happens
        # *after* day d's snapshot and is first visible in day d+1's, so
        # events from the final run_day (day start + study_days - 1)
        # never appear in any snapshot diff.  The window must exclude
        # them — and the days past the study that later callers may have
        # advanced the world through — or the ground-truth series claims
        # events no measurement could recover.  The bound matches
        # :meth:`StudyReport.ground_truth_daily_average`'s
        # ``study_days - 1`` divisor: the window spans exactly that many
        # observable days.
        last_observable = runtime.study_start_day + config.study_days - 1
        report.ground_truth_events = [
            event
            for event in world.engine.events
            if runtime.study_start_day <= event.day < last_observable
        ]
        return report

    # ------------------------------------------------------------------

    @merge_point
    def _analyse_usage_dynamics(
        self, report: StudyReport, study_start_day: int, verifier: HtmlVerifier
    ) -> None:
        if not self.config.run_usage_dynamics or len(report.observations) < 2:
            return
        flagged = MultiCdnFilter(self.config.multicdn_flip_threshold).flagged(
            report.observations
        )
        report.multicdn_flagged = flagged
        detector = BehaviorDetector(excluded=flagged)
        report.behaviors = detector.diff_series(
            report.observations, first_day=study_start_day + 1
        )
        report.behavior_daily_counts = BehaviorDetector.daily_counts(report.behaviors)
        report.behavior_averages = BehaviorDetector.average_per_day(
            report.behaviors, num_days=len(report.observations) - 1
        )

        analyzer = PauseAnalyzer()
        report.pause_durations_overall = analyzer.durations(report.behaviors)
        for provider in ("cloudflare", "incapsula"):
            report.pause_durations_by_provider[provider] = analyzer.durations(
                report.behaviors, provider=provider
            )

        experiment = IpChangeExperiment(verifier)
        report.ip_change = experiment.run(report.behaviors, report.snapshots)

    @merge_point
    def _analyse_adoption(self, report: StudyReport) -> None:
        if not report.observations:
            return
        num_days = len(report.observations)
        totals: Dict[str, int] = {}
        adopted_per_day: List[int] = []
        top_cutoff = max(1, int(report.population_size * self.world.config.top_sites_fraction))
        top_sites = {
            str(site.www) for site in self.world.population if site.rank <= top_cutoff
        }
        top_adopted_per_day: List[int] = []
        for day_observations in report.observations:
            adopted = 0
            top_adopted = 0
            for www, observation in sorted(day_observations.items()):
                if observation.provider is not None:
                    adopted += 1
                    totals[observation.provider] = totals.get(observation.provider, 0) + 1
                    if www in top_sites:
                        top_adopted += 1
            adopted_per_day.append(adopted)  # repro: allow[REP061] -- report.observations is in day order by construction; the per-day series must preserve it
            top_adopted_per_day.append(top_adopted)
        report.adoption_by_provider = {
            provider: count / num_days for provider, count in sorted(totals.items())
        }
        report.overall_adoption_rate = (
            sum(adopted_per_day) / num_days / report.population_size
        )
        report.top_sites_adoption_rate = (
            sum(top_adopted_per_day) / num_days / len(top_sites) if top_sites else 0.0
        )
        # Growth is measured against the first day with a nonzero
        # adopter count, not blindly against day 0: a population that
        # grows 0 -> 50 adopters must not report zero growth.  When no
        # day ever has an adopter the baseline is undefined and the
        # growth stays None.
        baseline = next((count for count in adopted_per_day if count > 0), None)
        if baseline is not None:
            report.adoption_growth = (adopted_per_day[-1] - baseline) / baseline

        # Fig. 6: Cloudflare customers by rerouting mechanism.
        ns_count = cname_count = 0
        for day_observations in report.observations:
            for observation in day_observations.values():  # repro: allow[REP061] -- commutative counters; iteration order cannot affect the sums
                if observation.provider != "cloudflare":
                    continue
                if observation.rerouting is ReroutingMethod.CNAME_BASED:
                    cname_count += 1
                elif observation.rerouting is ReroutingMethod.NS_BASED:
                    ns_count += 1
        total_cf = ns_count + cname_count
        if total_cf:
            report.cloudflare_ns_share = ns_count / total_cf
            report.cloudflare_cname_share = cname_count / total_cf
