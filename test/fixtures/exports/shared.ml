let own_only x = x + 1
let named_elsewhere x = own_only x
let nowhere x = x - 1
let kept x = x * 2
let stale_target x = x
