"""shapederiv benchmark: workloads, runner and out-of-package span tracing."""
