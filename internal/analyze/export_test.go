package analyze

// The walk oracle of walk_test.go, for the external test package.
var (
	WalkPattern = walkPattern
	WalkProgram = walkProgram
)
