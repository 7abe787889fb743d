let total x = Shared.named_elsewhere x + Shared.stale_target x
