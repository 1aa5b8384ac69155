"""End-to-end tuning-loop benchmark for the AutoDBaaS reproduction.

Run ``python3 loopbench/run.py --help`` from the root of a checkout.
"""
