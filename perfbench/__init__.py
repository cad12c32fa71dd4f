"""The repository benchmark: four workloads over the DynamIPs reproduction.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the checkout root.  See ``perfbench/README.md``.
"""
