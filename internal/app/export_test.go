package app

// ResetStateMemo empties the process's app state memo, so a test of the
// external test package can run a fleet cohort against a cold memo.
func ResetStateMemo() {
	stateScreenMu.Lock()
	clear(stateScreens)
	stateScreenMu.Unlock()
}
