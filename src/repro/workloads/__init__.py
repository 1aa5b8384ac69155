"""Workload substrate: query model, templating, sampling, generators.

Generators reproduce the workloads of the paper's evaluation (§5):
OLTP-Bench-style TPC-C, YCSB, Wikipedia, Twitter, the analytic TPC-H,
the adulterated TPC-C of §3.1 and a synthetic stand-in for the
proprietary 33-day production trace.
"""

from repro.workloads.adulterated import AdulteratedTPCCWorkload, adulteration_families
from repro.workloads.generator import WorkloadBatch, WorkloadGenerator
from repro.workloads.production import ProductionWorkload, diurnal_profile
from repro.workloads.query import Query, QueryFamily, QueryFootprint, QueryRows, QueryType
from repro.workloads.sampling import ReservoirSampler
from repro.workloads.templating import make_template
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.tpch import TPCHWorkload
from repro.workloads.twitter import TwitterWorkload
from repro.workloads.wikipedia import WikipediaWorkload
from repro.workloads.ycsb import YCSBWorkload

__all__ = [
    "AdulteratedTPCCWorkload",
    "ProductionWorkload",
    "Query",
    "QueryFamily",
    "QueryFootprint",
    "QueryRows",
    "QueryType",
    "ReservoirSampler",
    "TPCCWorkload",
    "TPCHWorkload",
    "TwitterWorkload",
    "WikipediaWorkload",
    "WorkloadBatch",
    "WorkloadGenerator",
    "YCSBWorkload",
    "adulteration_families",
    "diurnal_profile",
    "make_template",
]
