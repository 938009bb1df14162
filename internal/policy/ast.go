package policy

// AST node types. A script is a list of pipelines of commands; compound
// commands (if/while/case) nest lists.

// node is any executable AST node.
type node interface{ isNode() }

// listNode is a sequence of pipelines separated by ';' or newline.
type listNode struct {
	items []node
}

// pipeNode connects commands with '|'.
type pipeNode struct {
	cmds []node
}

// simpleNode is assignments + argv words (+ optional heredoc stdin).
type simpleNode struct {
	assigns []assign
	words   []word
	heredoc int // index into lexer.docs, -1 if none
	line    int
}

type assign struct {
	name  string
	value word
}

// ifNode: if cond then body [elif...] [else] fi.
type ifNode struct {
	arms     []ifArm
	elseBody *listNode
}

type ifArm struct {
	cond *listNode
	body *listNode
}

// whileNode: while cond do body done.
type whileNode struct {
	cond *listNode
	body *listNode
}

// caseNode: case word in pattern) body ;; ... esac.
type caseNode struct {
	subject word
	arms    []caseArm
}

type caseArm struct {
	patterns []word
	body     *listNode
}

func (*listNode) isNode()   {}
func (*pipeNode) isNode()   {}
func (*simpleNode) isNode() {}
func (*ifNode) isNode()     {}
func (*whileNode) isNode()  {}
func (*caseNode) isNode()   {}
