def run_step(trace, pid):
    # The engine forgot to record deliveries.
    trace.record_send(pid)
