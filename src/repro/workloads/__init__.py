"""Workload substrate: query model, templating, sampling, generators.

Generators reproduce the workloads of the paper's evaluation (§5):
OLTP-Bench-style TPC-C, YCSB, Wikipedia, Twitter, the analytic
CH-benCHmark/TPC-H, the adulterated TPC-C of §3.1 and a synthetic stand-in
for the proprietary 33-day production trace.
"""

from repro.workloads.adulterated import AdulteratedTPCCWorkload, adulteration_families
from repro.workloads.chbench import CHBenchWorkload
from repro.workloads.generator import MixWorkload, WorkloadBatch, WorkloadGenerator
from repro.workloads.production import ProductionWorkload, diurnal_profile
from repro.workloads.query import Query, QueryFamily, QueryFootprint, QueryRows, QueryType
from repro.workloads.sampling import ReservoirSampler
from repro.workloads.templating import TemplateCatalog, make_template, template_id
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.tpch import TPCHWorkload
from repro.workloads.twitter import TwitterWorkload
from repro.workloads.wikipedia import WikipediaWorkload
from repro.workloads.ycsb import YCSBWorkload

__all__ = [
    "AdulteratedTPCCWorkload",
    "CHBenchWorkload",
    "MixWorkload",
    "ProductionWorkload",
    "Query",
    "QueryFamily",
    "QueryFootprint",
    "QueryRows",
    "QueryType",
    "ReservoirSampler",
    "TemplateCatalog",
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
    "template_id",
]
