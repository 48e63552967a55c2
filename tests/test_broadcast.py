"""Unit tests for Bracha's reliable-broadcast substrate."""


from repro.broadcast.bracha_broadcast import (RBC_ECHO, RBC_INIT, RBC_READY,
                                              BroadcastInstance,
                                              ReliableBroadcastLayer)


class TestBroadcastInstance:
    def test_quorum_sizes(self):
        instance = BroadcastInstance(n=7, t=2, originator=3, tag="x")
        assert instance.echo_quorum == 5   # > (n + t) / 2 = 4.5
        assert instance.ready_amplify == 3  # t + 1
        assert instance.accept_quorum == 5  # 2t + 1

    def test_init_from_originator_triggers_echo_once(self):
        instance = BroadcastInstance(n=7, t=2, originator=3, tag="x")
        actions = instance.on_init(3, "v")
        assert actions == [(RBC_ECHO, "v")]
        assert instance.on_init(3, "v") == []

    def test_init_from_non_originator_ignored(self):
        instance = BroadcastInstance(n=7, t=2, originator=3, tag="x")
        assert instance.on_init(5, "v") == []
        assert not instance.echo_sent

    def test_echo_quorum_triggers_ready(self):
        instance = BroadcastInstance(n=7, t=2, originator=3, tag="x")
        actions = []
        for sender in range(5):
            actions += instance.on_echo(sender, "v")
        assert (RBC_READY, "v") in actions
        assert instance.ready_sent

    def test_ready_amplification(self):
        instance = BroadcastInstance(n=7, t=2, originator=3, tag="x")
        actions = []
        for sender in range(3):
            actions += instance.on_ready(sender, "v")
        assert (RBC_READY, "v") in actions

    def test_accept_after_2t_plus_1_readies(self):
        instance = BroadcastInstance(n=7, t=2, originator=3, tag="x")
        for sender in range(5):
            instance.on_ready(sender, "v")
        assert instance.accepted_value == "v"

    def test_conflicting_echoes_do_not_reach_quorum(self):
        instance = BroadcastInstance(n=7, t=2, originator=3, tag="x")
        for sender in range(3):
            instance.on_echo(sender, "a")
        for sender in range(3, 6):
            instance.on_echo(sender, "b")
        assert not instance.ready_sent


class TestReliableBroadcastLayer:
    def _full_network(self, n=7, t=2):
        return [ReliableBroadcastLayer(pid=pid, n=n, t=t)
                for pid in range(n)]

    def _exchange(self, layers, outgoing_by_pid, accepted):
        """Deliver every queued payload from every processor to everyone.

        ``handle`` returns what each payload got accepted; those
        acceptances are appended to ``accepted[pid]``.
        """
        for sender, payloads in outgoing_by_pid.items():
            for payload in payloads:
                for pid, layer in enumerate(layers):
                    accepted[pid].extend(layer.handle(sender, payload))

    def test_broadcast_reaches_acceptance_everywhere(self):
        layers = self._full_network()
        accepted = [[] for _ in layers]
        layers[0].broadcast("tag", 1)
        # Round 1: the INIT reaches everyone.
        self._exchange(layers, {0: layers[0].take_outgoing()}, accepted)
        # Round 2: echoes.
        self._exchange(layers, {pid: layers[pid].take_outgoing()
                                for pid in range(7)}, accepted)
        # Round 3: readies.
        self._exchange(layers, {pid: layers[pid].take_outgoing()
                                for pid in range(7)}, accepted)
        for acceptances in accepted:
            assert len(acceptances) == 1
            assert acceptances[0].value == 1
            assert acceptances[0].originator == 0

    def test_acceptance_is_reported_only_once(self):
        layers = self._full_network()
        accepted = [[] for _ in layers]
        layers[0].broadcast("tag", 1)
        for _ in range(4):
            self._exchange(layers, {pid: layers[pid].take_outgoing()
                                    for pid in range(7)}, accepted)
        total = sum(len(acceptances) for acceptances in accepted)
        assert total == 7

    def test_malformed_payloads_are_ignored(self):
        layer = ReliableBroadcastLayer(pid=0, n=7, t=2)
        assert layer.handle(1, "junk") == []
        assert layer.handle(1, (RBC_INIT, 99, "tag", 1)) == []
        assert layer.take_outgoing() == []

    def test_equivocating_originator_cannot_get_two_acceptances(self):
        """Two different INIT values cannot both gather echo quorums."""
        layers = self._full_network()
        accepted = [[] for _ in layers]
        # The (Byzantine) originator 0 sends value 0 to processors 1-3 and
        # value 1 to processors 4-6.
        for pid in range(1, 4):
            layers[pid].handle(0, (RBC_INIT, 0, "tag", 0))
        for pid in range(4, 7):
            layers[pid].handle(0, (RBC_INIT, 0, "tag", 1))
        # Exchange echoes and readies for several rounds.
        for _ in range(4):
            outgoing = {pid: layers[pid].take_outgoing() for pid in range(7)}
            self._exchange(layers, outgoing, accepted)
        accepted_values = {acceptance.value for acceptances in accepted
                           for acceptance in acceptances}
        assert len(accepted_values) <= 1
