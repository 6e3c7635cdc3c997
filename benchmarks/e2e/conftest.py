"""Keep the benchmark's smoke test out of tier-1.

``python -m pytest`` from the repository root collects every ``test_*.py``
it finds; the smoke test here takes about a minute and spawns party
processes, so it runs only when named:
``python -m pytest benchmarks/e2e/test_e2e_smoke.py`` (a path given on the
command line is collected whatever ``collect_ignore`` says).
"""

collect_ignore = ["test_e2e_smoke.py"]
