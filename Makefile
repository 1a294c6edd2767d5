# Convenience targets; everything is plain dune underneath.

.PHONY: all build test ci bench bench-fast bench-placement bench-placement-scale bench-enforce bench-enforce-scale bench-inference bench-inference-stream bench-failures examples doc clean

all: build

build:
	dune build @all

test:
	dune runtest

# Mirror of .github/workflows/ci.yml: install dependencies (when opam is
# available), build everything, run the test suite, then the same
# schema-gated bench smokes the Actions workflow runs — local `make ci`
# and CI stay identical.
ci:
	@if command -v opam >/dev/null 2>&1; then \
	  opam install . --deps-only --with-test --yes; \
	else \
	  echo "opam not found; assuming dependencies are already installed"; \
	fi
	dune build @all
	dune runtest
	scripts/ci-bench-smoke.sh fig8 --arrivals 200
	scripts/ci-bench-smoke.sh placement --jobs 1
	scripts/ci-bench-smoke.sh placement-scale --arrivals 200 --jobs 2
	scripts/ci-bench-smoke.sh enforce --jobs 1
	scripts/ci-bench-smoke.sh enforce-scale --jobs 2
	scripts/ci-bench-smoke.sh inference --jobs 1
	scripts/ci-bench-smoke.sh inference-stream --jobs 2
	scripts/ci-bench-smoke.sh sim-failures --arrivals 400 --jobs 1
	scripts/ci-bench-smoke.sh enforce-failures --jobs 1

# Full paper-scale reproduction of every table and figure.  Sweeps fan
# out over all cores; JOBS=N pins the domain count (JOBS=1 = sequential).
JOBS ?=
JOBS_FLAG = $(if $(JOBS),--jobs $(JOBS),)
EXPERIMENT = dune exec bin/cloudmirror.exe -- experiment --arrivals 10000 $(JOBS_FLAG)

bench:
	$(EXPERIMENT)

# Same sections at 2000 arrivals per simulated point (the CLI default).
bench-fast:
	dune exec bin/cloudmirror.exe -- experiment $(JOBS_FLAG)

# Placement hot-path microbenchmark only; writes a metrics document to
# compare against the committed BENCH_pr3.json baseline.
bench-placement:
	$(EXPERIMENT) placement --metrics-out BENCH_placement.json

# Region-scale placement sweep (2,048 -> 131,072 servers): availability
# index vs pod-sharded epoch batching, with index-vs-rebuild identity
# and jobs-invariance enforced in-process; writes a metrics document to
# compare against the committed BENCH_pr8.json baseline.
bench-placement-scale:
	$(EXPERIMENT) placement-scale --metrics-out BENCH_placement_scale.json

# Enforcement control-loop benchmark only (10k+ flows, epoch-compiled
# loop); writes a metrics document to compare against the committed
# BENCH_pr4.json baseline.
bench-enforce:
	$(EXPERIMENT) enforce --metrics-out BENCH_enforce.json

# Million-flow steady-state enforcement sweep (10k -> 1M flows under
# churn): persistent incremental max-min vs the from-scratch oracle,
# with bitwise oracle equality and jobs-invariance enforced in-process;
# writes a metrics document to compare against the committed
# BENCH_pr9.json baseline.
bench-enforce-scale:
	$(EXPERIMENT) enforce-scale --metrics-out BENCH_enforce_scale.json

# Inference hot-path benchmark only (Infer.infer at 128 to 1,024 VMs,
# with each size's label digest and AMI); writes a metrics document to
# compare against the committed BENCH_pr5.json baseline.
bench-inference:
	$(EXPERIMENT) inference --metrics-out BENCH_inference.json

# Streaming TAG inference only (incremental engine vs from-scratch per
# epoch, 1,024 -> 16,384 VMs under seeded drift); writes a metrics
# document to compare against the committed BENCH_pr10.json baseline.
bench-inference-stream:
	$(EXPERIMENT) inference-stream --metrics-out BENCH_inference_stream.json

# Failure & survivability campaign only (placement-side injection +
# recovery and the enforcement-side replay); writes a metrics document
# to compare against the committed BENCH_pr6.json baseline.
bench-failures:
	$(EXPERIMENT) sim-failures enforce-failures --metrics-out BENCH_failures.json

examples:
	dune exec examples/quickstart.exe
	dune exec examples/three_tier_web.exe
	dune exec examples/storm_pipeline.exe
	dune exec examples/ha_placement.exe
	dune exec examples/inference_demo.exe
	dune exec examples/enforcement_demo.exe
	dune exec examples/autoscale_demo.exe
	dune exec examples/disaggregated_dc.exe
	dune exec examples/full_system.exe

clean:
	dune clean
