# Convenience targets for the EV8 reproduction.

PYTHON ?= python

.PHONY: install test bench bench-quick report examples clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Quarter-scale traces: every table/figure in a few minutes.
bench-quick:
	REPRO_TRACE_BRANCHES=75000 $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

report:
	$(PYTHON) -m repro.experiments.runall --output report.md

examples:
	$(PYTHON) examples/quickstart.py li 40000
	$(PYTHON) examples/frontend_pipeline.py perl
	$(PYTHON) examples/design_space.py 40000
	$(PYTHON) examples/smt_interference.py 20000
	$(PYTHON) examples/aliasing_analysis.py gcc
	$(PYTHON) examples/custom_workload.py

clean:
	rm -rf .trace_cache .result_cache .benchmarks
