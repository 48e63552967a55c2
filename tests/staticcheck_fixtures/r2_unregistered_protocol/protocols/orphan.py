"""R2 fixture: a concrete protocol the registry cannot reach."""


class Protocol:
    def _compose_payloads(self):
        raise NotImplementedError


class OrphanAgreement(Protocol):
    def _compose_payloads(self):
        return []
